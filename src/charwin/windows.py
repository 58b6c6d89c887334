"""Sliding-window sums of the quadratic character mod q and their statistics.

The central object is S(m) = sum of (n|q) over the window m < n <= m+h, for
g consecutive starting points m.  window_histograms is the one route from
symbols to value histograms, its window sums formed by doubling in the
narrowest integer dtype that holds [-h, h].  empirical_summary is the one
reducer from a histogram to statistics: exact integer power sums of S, from
which come the moments of S/sqrt(h) and the moment deviations against the
pairing counts K(r, h), and the lattice CDF, compared against the standard
Gaussian.  Floats only appear in each statistic's final division.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .arith import (
    MAX_MODULUS,
    MAX_SEGMENT,
    ExperimentWarning,
    _prime_mask,
    fit_budget,
    jacobi,
    jacobi_array,
    prime_modulus,
    primes_in_interval,
)
from .squares import paired_count_exact

# Character tables are dense int8 arrays of the (q+1)/2 symbols of a half
# period; cap q so bulk paths never allocate a table of more than ~64 MB.
CHI_TABLE_MAX = 1 << 27
# BLOCK_BYTES is a memory cap, not a pass size.  Every bulk loop keeps its
# working set within it: symbol blocks and tiles with their window sums (12
# bytes per symbol while every h < 2**7, 15 while h < 2**15, 21 above; see
# window_histograms), of which 8 bytes per start count them (the intp sums,
# or a lone row's intp pair codes and bins, 4 + 4; rows that share a config
# hold their intp sums a pass of rows at a time), and 8 * (2h+1) bytes of
# counts per row, the chunks of squares in chi_table (20 bytes per square:
# the uint32 squares, their steps and the clipped squares, and the intp
# slots; 29 on the fill route above _FILL_ABOVE, which adds the bool keep
# mask and the indices of the kept squares, while its batch of kept squares,
# at most BLOCK_BYTES, lives in the table's own bytes), and the chunks of
# _chi_range, incomplete_poly_sum and polya_vinogradov_check.
# _block_rows holds a chi_block within 2 * BLOCK_BYTES (see chi_block) for it
# and its callers; the tables of its last small primes stay cached, read-only,
# for the next block.  Above
# CHI_TABLE_MAX, a call reads at most MAX_SEGMENT symbols from jacobi_array.
# arith.fit_budget checks and refuses every one of these caps.
BLOCK_BYTES = 1 << 24
# The passes that read the character table, whose per-call cost is small,
# work on min(BLOCK_BYTES, _PASS_BYTES) at a time so that each numpy pass
# stays in a core's L2 cache: the chunks of squares in chi_table and the
# blocks of its expansion and fill, the single-row tiles of
# window_histograms below CHI_TABLE_MAX, the intp sums of the rows of a block
# that _histograms counts in one bincount, and the chunks of
# incomplete_poly_sum and polya_vinogradov_check.  Chosen by a measured sweep from 256 KB to 4 MB
# (BENCH_cache_resident_passes.json).  Row blocks, the jacobi_array tiles
# and the refusals keep BLOCK_BYTES.  The row passes also keep glibc from
# serving one block-sized intp array per call from its heap, which raised
# peak RSS (BENCH_interval_reduction.json).
_PASS_BYTES = 1 << 20
# A character table of more than _FILL_ABOVE entries (bytes) outgrows the
# cache, and marking its squares is random writes that miss it.  Above this
# size chi_table marks only the squares prime to 6, sorted in batches so
# that each batch sweeps its marks once, and fills the multiples of 2 and 3
# by multiplicativity, in cache-local strided copies.  On a table that fits
# the cache the extra passes cost more than the misses they save: a
# measured sweep of table sizes from 1 to 62 MiB found the plain marking
# faster up to about 2.5 MiB on a 2 MB L2, and 4 MiB leaves room for larger
# caches (BENCH_multiplicative_fill.json).  There a sort costs more than
# the random writes, so the plain marking sorts nothing
# (BENCH_sorted_marks.json).
_FILL_ABOVE = 1 << 22


def _coprime_to_6(slots: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Mark in keep the uint32 slots that are odd and not divisible by 3,
    overwriting slots.

    0xAAAAAAAB is the inverse of 3 mod 2**32: s * 0xAAAAAAAB mod 2**32 is
    s / 3 <= 0x55555555 when 3 divides s and lies above that otherwise, and
    as an odd factor it keeps the parity of s.  np.remainder costs several
    times as much.
    """
    slots *= 0xAAAAAAAB
    np.greater(slots, 0x55555555, out=keep)
    slots &= 1
    return np.logical_and(keep, slots, out=keep)


def _multiplicative_fill(t: np.ndarray, primes) -> None:
    """Set t[n] = t[p] t[n / p] along axis 0 of a table or an n-major block
    t, in place, for every n >= 2 that a p in primes divides.

    primes holds the primes up to some bound, ascending, and t must already
    hold their own entries and those of every n that none of them divides.
    (n|q) is completely multiplicative in n, so each p fills its multiples
    by one strided copy per block, of whole rows t[n] on a block.  The blocks
    lo <= n < hi grow in increasing order with hi <= 2 lo, so every k = n / p
    lies below lo, already final, and each block spans at most a pass of
    min(BLOCK_BYTES, _PASS_BYTES) bytes.  A block needs only the p with
    p**2 < hi: the smallest prime factor p of a composite n < hi has
    p**2 <= n.
    """
    rows = math.prod(t.shape[1:])
    step = max(1, min(BLOCK_BYTES, _PASS_BYTES) // max(1, rows))
    lo = 2
    while lo < len(t):
        hi = min(2 * lo, lo + step, len(t))
        for p in itertools.takewhile(lambda p: p * p < hi, primes):
            k = -(-lo // p)
            np.multiply(t[k : -(-hi // p)].T, t[p, ..., None], out=t[p * k : hi : p].T)
        lo = hi


def chi_table(q: int) -> np.ndarray:
    """Legendre symbols (r|q) for the half period r = 0..(q-1)/2 as int8.

    That is (q+1)/2 bytes; the upper half follows by the mirror
    (q-r|q) = (-1|q) (r|q), which _chi_range applies.  Built by marking the
    (q-1)/2 nonzero squares mod q, an independent route from the
    binary-reciprocity jacobi(); tests pin the two together.  The squares
    are taken in chunks of L <= 2**15 values of x, in uint32: the first
    chunk's x**2 mod q by one division, every later one from the last by
    two additions mod q, since (x + L)**2 = x**2 + d with d = 2 L x + L**2,
    and d itself grows by 2 L**2.  Every square at or above half is clipped
    onto one extra slot half, past the returned table.  A chunk fits
    min(BLOCK_BYTES, _PASS_BYTES), a cache-sized pass, at 20 bytes per
    square: the squares, their steps d and the clipped squares, uint32, and
    the slots, intp, which index the scatter faster than uint32.

    A table of more than _FILL_ABOVE entries, which outgrows the cache,
    takes a second route with the same result: only the squares prime to 6
    are marked, and the multiples of 2 and 3 are filled by
    t[p k] = t[p] t[k], the one multiplicative fill that chi_block uses too,
    from t[2] and t[3] in closed form: (2|q) = 1 exactly when q = +-1 mod 8
    and (3|q) = 1 exactly when q = +-1 mod 12.
    Its spare slot is the first multiple of 6 at or above half, so the
    clipped squares are dropped with the rest.  A kept square s marks
    c[s // 3], one byte per n prime to 6, where c is the top third of the
    table's bytes.  The kept squares of the chunks, divided by 3, gather in
    a batch of uint32 in the table's low bytes, which are not final yet;
    each full batch, up to BLOCK_BYTES, is sorted in place and marks c in
    one ordered sweep instead of random writes that miss the cache.  Then
    the marks are spread over the table, upwards and below the marks not
    yet read, and the fill overwrites every other entry.  A chunk holds 29
    bytes per square: those of the plain route, the bool keep mask and the
    indices of the kept squares; the test of divisibility by 3 overwrites
    the clipped squares.
    The batch and the marks cost no byte beyond the table.  The speed of
    the sort comes from numpy's SIMD sort kernels (numpy 2.0 and later);
    the table is exact on any numpy.
    """
    return _cached_table(prime_modulus(q))


@functools.lru_cache(maxsize=1)
def _cached_table(q: int) -> np.ndarray:
    """chi_table's build and cache, for a q its caller has checked prime.

    _chi_range reads it directly: every caller of _chi_range has already
    checked its modulus, so no table read tests primality again.  The cache
    keeps the last table only: production reads the tables in order of q,
    so a run holds one table, two while the next one is built.  Both
    routes take the uint32 squares of one kernel: the first chunk by
    _reduce, each later one by two _add_mod steps.  Up to _FILL_ABOVE
    entries every square is marked, 20 bytes per square.  Above, only the
    squares prime to 6 (_coprime_to_6), 29 bytes per square.  Each kept
    square s goes, divided by 3, into a batch of uint32 held in the table's
    low bytes, which are not final yet; a full batch is sorted in place and
    marks c[s // 3] in one sweep (_mark_sorted), c being the top spare // 3
    bytes of the table.  _expand_marks spreads c over the entries prime to
    6, t[2] and t[3] come from their closed forms, and _multiplicative_fill
    sets the multiples of 2 and 3.
    """
    half = (q + 1) // 2
    fit_budget(f"character table for q={q}", half, 1, (CHI_TABLE_MAX + 1) // 2, "(CHI_TABLE_MAX + 1) // 2")
    fill = half > _FILL_ABOVE
    # every buffer is reused for every chunk, and the clipped squares u are
    # also the scratch of each reduction mod q.  L <= 2**15 keeps x**2 and
    # 2 L x + L**2 of the first chunk below 2**32
    size = min(min(BLOCK_BYTES, _PASS_BYTES) // (29 if fill else 20), 1 << 15, half - 1)
    if fill:
        # the squares at or above half land on one spare slot, a multiple of
        # 6, which _coprime_to_6 drops.  The top spare // 3 bytes c take one
        # mark per n prime to 6 below spare, c[n // 3]; the bytes below c
        # hold the batch until _expand_marks writes them
        spare = -(-half // 6) * 6
        t = np.empty(spare + 1, dtype=np.int8)
        base = t.size - spare // 3
        c = t[base:]
        c.fill(-1)
        batch = t[: 4 * min(base // 4, BLOCK_BYTES // 4)].view(np.uint32)
        keep = np.empty(size, dtype=bool)
        count = 0
    else:
        spare = half
        t = np.full(spare + 1, -1, dtype=np.int8)
        t[0] = 0
    u = np.empty(size, dtype=np.uint32)
    slots = np.empty(size, dtype=np.intp)
    s = np.arange(1, size + 1, dtype=np.uint32)
    if size < half - 1:
        d = np.multiply(s, 2 * size, dtype=np.uint32)
        d += size * size
        _reduce(d, q, u)
    _reduce(np.square(s, out=s), q, u)
    for lo in range(1, half, size):
        if lo > 1:
            # (x + L)**2 = x**2 + (2 L x + L**2), and 2 L (x + L) + L**2 =
            # (2 L x + L**2) + 2 L**2: two additions mod q carry the last
            # chunk to this one
            _add_mod(s, d, q, u)
            _add_mod(d, 2 * size * size % q, q, u)
        n = min(size, half - lo)
        # clipped in uint32 against an array of spares: a minimum against a
        # scalar, or one that casts as it writes, is a slower pass, and the
        # cast takes a buffer of its own
        clipped = u[:n]
        clipped.fill(spare)
        np.minimum(s[:n], clipped, out=clipped)
        if fill:
            # a kept square is below half, so it equals its clipped value.
            # np.compress would take the same indices and buffer its output
            kept = np.flatnonzero(_coprime_to_6(clipped, keep[:n]))
            while kept.size:
                if count == batch.size:
                    _mark_sorted(batch, c, slots)
                    count = 0
                squares = batch[count : count + kept.size]
                np.take(s[:n], kept[: squares.size], out=squares, mode="clip")
                np.floor_divide(squares, 3, out=squares)
                count += squares.size
                kept = kept[squares.size :]
        else:
            # widened, because an intp index scatters faster than uint32
            chunk = slots[:n]
            np.copyto(chunk, clipped)
            t[chunk] = 1
    if fill:
        _mark_sorted(batch[:count], c, slots)
        _expand_marks(t, base, half)
        # past half on the smallest tables, where they land on spent marks
        t[2:4] = (1 if q % 8 in (1, 7) else -1), (1 if q % 12 in (1, 11) else -1)
        _multiplicative_fill(t[:half], (2, 3))
    t.setflags(write=False)
    return t[:half]


def _mark_sorted(batch: np.ndarray, c: np.ndarray, slots: np.ndarray) -> None:
    """c[i] = 1 for every i in the uint32 batch, sorted in place first.

    Sorted, the marks sweep c once, in order, where the same writes at
    random miss the cache on a table that outgrows it.  The batch is
    widened piece by piece through the intp slots, which marks twice as
    fast as an index of uint32 and takes no buffer of numpy's beyond the
    pass.  numpy 2.0 and later sort uint32 with SIMD kernels; older numpy
    gives the same marks, more slowly.
    """
    batch.sort()
    for lo in range(0, batch.size, slots.size):
        piece = slots[: min(slots.size, batch.size - lo)]
        np.copyto(piece, batch[lo : lo + piece.size])
        c[piece] = 1


def _expand_marks(t: np.ndarray, base: int, half: int) -> None:
    """Spread the marks c = t[base:] over the table t[:half], in place, and
    set t[0] = 0.

    c[i] holds the symbol of the one n prime to 6 among 3 i + 1 and 3 i + 2,
    so t[n] = c[n // 3] for n = 1 and 5 mod 6; _multiplicative_fill
    overwrites the rest.  The blocks lo <= n < hi run upwards, each within
    a pass of min(BLOCK_BYTES, _PASS_BYTES) and below
    base + (lo - 1) // 3, the first byte of c it may still have to read.
    So no block overwrites a mark before it is read, and near the top the
    blocks shrink to a third of the gap that is left.
    """
    t[0] = 0
    c = t[base:]
    lo = 1
    while lo < half:
        hi = min(lo + min(BLOCK_BYTES, _PASS_BYTES), half, base + (lo - 1) // 3)
        for n0 in (lo + (1 - lo) % 6, lo + (5 - lo) % 6):
            k = len(range(n0, hi, 6))
            t[n0:hi:6] = c[n0 // 3 : n0 // 3 + 2 * k : 2]
        lo = hi


def _reduce(v: np.ndarray, q: int, scratch: np.ndarray) -> None:
    """v mod q in place, for uint32 v: v - (v // q) * q, the quotients in
    scratch.  Dividing a uint32 array by a scalar takes numpy's fast integer
    division, several times quicker than int64's."""
    quotient = np.floor_divide(v, q, out=scratch)
    quotient *= q
    v -= quotient


def _add_mod(v: np.ndarray, w, q: int, scratch: np.ndarray) -> None:
    """v = (v + w) mod q in place, for uint32 v and w below q < 2**31.

    The sum lies below 2 q, and v - q wraps past it exactly when v < q, so
    the smaller of v and v - q is the residue, with no branch."""
    v += w
    np.minimum(v, np.subtract(v, q, out=scratch), out=v)


def _chi_range(q: int, n_lo: int, n_hi: int) -> np.ndarray:
    """Symbols (n|q) for n = n_lo..n_hi inclusive, as an int8 array.

    The one place that picks a route: the half-period table while q fits
    CHI_TABLE_MAX, above it jacobi_array over tiles of numerators in [-q, q)
    whose working set fits BLOCK_BYTES at 83 bytes per symbol, a bound with
    margin (tracemalloc reads about 66 at q = 10**9 + 7); a range of more
    than MAX_SEGMENT symbols is refused there.  A range on the
    table route is a view of the table when it stays inside r <= (q-1)/2.
    Any other range is one int8 array filled piece by piece: residues in the
    lower half are slices of the table, those in the upper half its mirror
    t[q-r] read backwards and negated when q = 3 mod 4.  The pieces fill one
    period at most; a longer range then repeats it by doubling copies.
    """
    count = n_hi - n_lo + 1
    if q > CHI_TABLE_MAX:
        fit_budget(f"jacobi_array read of n = {n_lo}..{n_hi} at q={q}", count, 1, MAX_SEGMENT, "MAX_SEGMENT",
                   "symbols")
        out = np.empty(count, dtype=np.int8)
        step = max(1, BLOCK_BYTES // 83)  # one symbol at least, under a budget below 83 bytes too
        for lo in range(0, count, step):
            n = np.arange(min(step, count - lo), dtype=np.int64) + ((n_lo + lo) % q - q)
            out[lo : lo + n.size] = jacobi_array(n, q)
        return out
    t = _cached_table(q)
    half = t.size
    lo = n_lo % q
    if lo + count <= half:
        return t[lo : lo + count]
    out = np.empty(count, dtype=np.int8)
    pos, end = 0, min(count, q)
    while pos < end:
        r = (lo + pos) % q
        if r < half:
            k = min(half - r, end - pos)
            out[pos : pos + k] = t[r : r + k]
        else:
            k = min(q - r, end - pos)
            mirror = t[q - r - k + 1 : q - r + 1][::-1]
            if q % 4 == 3:
                np.negative(mirror, out=out[pos : pos + k])
            else:
                out[pos : pos + k] = mirror
        pos += k
    while pos < count:  # pos is a whole number of periods
        k = min(pos, count - pos)
        out[pos : pos + k] = out[:k]
        pos += k
    return out


@functools.lru_cache(maxsize=1)
def _full_tables(ells: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Full-period tables (r|l), r = 0..l-1, of the odd primes ells, laid end
    to end in one int8 array, l entries per l; with the offset of each table.

    Each table is marked from its (l-1)/2 squares x**2 mod l, x = 1..(l-1)/2,
    all in one pass, in int32: at BLOCK_BYTES = 2**24 the tables of a block
    within chi_block's budget hold under 2**25 entries, so they stop below
    l = 2**15.  Cached for the last ells, read-only: the consecutive blocks
    of an interval, and the row chunks of one, mostly share their small
    primes.
    """
    ells = np.array(ells, dtype=np.int32)
    starts = np.cumsum(ells, dtype=np.int32) - ells
    t = np.full(int(starts[-1]) + int(ells[-1]), -1, dtype=np.int8)
    t[starts] = 0
    counts = (ells - 1) // 2
    x = np.arange(1, int(counts.sum()) + 1, dtype=np.int32)
    x -= np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts)
    x *= x
    x %= np.repeat(ells, counts)
    x += np.repeat(starts, counts)
    t[x] = 1
    t.setflags(write=False)
    starts.setflags(write=False)
    return t, starts


def chi_block(qs, n_max: int) -> np.ndarray:
    """Jacobi symbols (n|q) for n = 0..n_max (columns) and every q in qs (rows), int8.

    Every q must be odd with 3 <= q < 2**63 and is not tested for primality;
    for prime q these are the Legendre symbols.  Each step below, reciprocity
    included, holds for Jacobi symbols too.

    The block is built n-major, one row per n with the moduli inner, and the
    rows x columns result is its transpose, a view: every step below then
    writes whole rows of the n-major array.  Prime columns l come by
    quadratic reciprocity, in increasing order, as long as the full-period
    tables of the odd primes up to l hold no more than 2 (l+1) entries per
    modulus: (2|q) = 1 exactly when q = +-1 mod 8, and for odd l,
    (l|q) = (s mod l | l) with s = q when q = 1 mod 4 and s = -q when
    q = 3 mod 4, read from the table of l.  So a block of few rows keeps few
    tables: one row reads only l = 2, 3, 5, 7 this way.  The other prime
    columns come from one jacobi_array call.  The prime columns are read off
    the package's one sieve (arith._prime_mask), and _multiplicative_fill,
    the fill of the large character tables too, sets every composite
    column n = p k to column p times column k.  The block is exact for
    n_max >= q as well.

    The tables are built once for each tuple of small primes and kept,
    read-only, for the next call (_full_tables): the blocks of an interval
    mostly read the same ones.  Before any allocation, (n_max + 1)(3 + 3
    rows) bytes are checked against 2 * BLOCK_BYTES: the bool prime mask and
    the int32 primes, 3 bytes per column at most, the block, and the
    tables, at most 2 entries per cell.  Transient on top: the sieve's intp
    primes before they are narrowed, 5 bytes per cell of the reciprocity
    columns (the int32 residues and the symbols read), at most 12 bytes per
    square while the tables are built (the int32 squares, a repeat beside
    them, and the intp index numpy takes for the scatter), and
    jacobi_array's working set on the larger prime columns: at most 83
    bytes per cell, a bound with margin (tracemalloc reads about 66 at
    q = 10**9 + 7).  The tables of the last call stay alive until a call
    with other small primes replaces them.
    """
    qs = [operator.index(q) for q in qs]
    for q in qs:
        if q % 2 == 0 or not 3 <= q < MAX_MODULUS:
            raise ValueError(f"chi_block moduli must be odd with 3 <= q < 2**63, got {q}")
    qs = np.array(qs, dtype=np.int64)
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    _block_rows(f"symbol block of {qs.size} moduli to n_max={n_max}", n_max, qs.size, "its")
    primes = np.flatnonzero(_prime_mask(2, n_max)).astype(np.int32)
    primes += 2
    block = np.empty((n_max + 1, qs.size), dtype=np.int8)
    block[:2] = np.array([[0], [1]], dtype=np.int8)[: n_max + 1]
    if n_max >= 2:
        block[2] = np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8)[qs & 7]
    ells = primes[1:]
    fits = np.cumsum(ells, dtype=np.int64) <= 2 * qs.size * (ells + np.int64(1))
    split = fits.size if fits.all() else int(fits.argmin())
    small, large = ells[:split], ells[split:]
    if small.size:
        t, starts = _full_tables(tuple(small.tolist()))
        # (l|q) = (q|l) when q = 1 mod 4 and (-1|l) (q|l) = (-q|l) when q = 3 mod 4
        signed = np.where((qs & 3) == 1, qs, -qs)
        r = np.remainder(signed, small[:, None], out=np.empty((small.size, qs.size), np.int32), casting="unsafe")
        r += starts[:, None]
        block[small] = t[r]
    block[large] = jacobi_array(large[:, None], qs)
    _multiplicative_fill(block, primes[primes <= math.isqrt(n_max)].tolist())
    return block.T


def _block_rows(what: str, n_max: int, rows: int, owner: str) -> int:
    """The most rows of a chi_block to n_max, (n_max + 1)(3 + 3 rows) bytes
    within 2 * BLOCK_BYTES; fewer than rows refuse as what."""
    fit_budget(what, n_max + 1, 3 + 3 * rows, 2 * BLOCK_BYTES, "2 * BLOCK_BYTES",
               parts=f"{owner} prime mask and primes, block and tables")
    return (2 * BLOCK_BYTES // (n_max + 1) - 3) // 3


def window_sum(q: int, x: int, h: int) -> int:
    """S = sum of (n|q) over the window x < n <= x+h.  Reference evaluator.

    h = q (one complete period, which sums to zero) is allowed as a sanity
    case; anything longer is rejected.
    """
    q = prime_modulus(q)
    if x < 0:
        raise ValueError(f"window start must be >= 0, got {x}")
    if not 1 <= h <= q:
        raise ValueError(f"window length must satisfy 1 <= h <= q, got h={h}, q={q}")
    return sum(jacobi(n, q) for n in range(x + 1, x + h + 1))


@dataclass(frozen=True)
class WindowConfig:
    """h = window length, g = number of starting points m_start..m_start+g-1."""

    h: int
    g: int
    m_start: int = 1

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError(f"window length must be >= 1, got {self.h}")
        if self.g < 1:
            raise ValueError(f"need at least one starting point, got g={self.g}")
        if self.m_start not in (0, 1):
            raise ValueError(f"starting-point convention must be 0 or 1, got {self.m_start}")


def _warn_if_wraps(q: int, config: WindowConfig, stacklevel: int) -> None:
    """Warn when the window span g + h reaches a full period of q."""
    span = config.g + config.h
    if span >= q:
        warnings.warn(
            f"window span g+h = {span} reaches a full period of q = {q}; "
            "starting points wrap around",
            ExperimentWarning,
            stacklevel=stacklevel + 1,
        )


def window_series(q: int, config: WindowConfig) -> np.ndarray:
    """Window sums S(m) for m = m_start .. m_start+g-1, as int64.

    Evaluates each symbol once over the span (g + h + O(1) evaluations) and
    slides via prefix sums, which telescopes to the incremental update
    S(m+1) = S(m) - chi(m+1) + chi(m+1+h).  Small-case reference only.
    """
    q = prime_modulus(q)
    h, g, m0 = config.h, config.g, config.m_start
    if h >= q:
        raise ValueError(f"window length h={h} must be < q={q}")
    _warn_if_wraps(q, config, stacklevel=2)
    chi = _chi_range(q, m0 + 1, m0 + g + h - 1)
    prefix = np.concatenate([np.zeros(1, np.int64), np.cumsum(chi, dtype=np.int64)])
    return prefix[h : h + g] - prefix[0:g]


@dataclass
class EmpiricalSummary:
    """Exact statistics of one value histogram, value_counts[v + h] = #{m : S(m) = v}.

    power_sums[j] is the exact integer sum of S(m)^j over the g =
    sample_count starts, j = 0..max_moment of empirical_summary.  moments[j]
    is the j-th moment of S/sqrt(h), deviation(j), any j, the j-th power
    sum's distance from its pairing target, and cdf the lattice CDF of S/sqrt(h).
    """

    h: int
    sample_count: int
    value_counts: tuple[int, ...]
    moments: dict[int, float]
    power_sums: dict[int, int]

    @functools.cached_property
    def _cumulative(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.value_counts))

    def cdf(self, lam: float) -> float:
        """Empirical P(S <= lam * sqrt(h)).

        Window sums sit on an integer lattice, so the threshold is floored;
        values within 1e-9 of the integer above are snapped up to keep exact
        grid points (e.g. lam = 0) stable under float noise.
        """
        if not math.isfinite(lam):
            raise ValueError(f"CDF point must be finite, got lambda = {lam}")
        x = lam * math.sqrt(self.h)
        if x >= self.h:
            return 1.0
        if x < -self.h - 1:
            return 0.0
        t = math.floor(x)
        if x - t > 1 - 1e-9:
            t += 1
        if t < -self.h:
            return 0.0
        if t >= self.h:
            return 1.0
        return self._cumulative[t + self.h] / self.sample_count

    def deviation(self, j: int) -> float:
        """(1/g) * sum_m S(m)^j minus its target, for 1 <= j <= 2h.

        Even j = 2r: the target is K(r, h), the exact fully-paired tuple
        count (equal to mu_2r * (h - theta*r)^r by definition of theta); the
        difference is an exact integer, and dividing it by g rounds once.
        Odd j: the target is zero.  One row of _deviations.
        """
        if not 1 <= j <= 2 * self.h:
            raise ValueError(f"need 1 <= j <= 2h = {2 * self.h}, got j={j}")
        return float(_deviations(_counts_matrix(self.value_counts, self.sample_count), self.h, [j])[0, 0])


def value_histogram(sums: np.ndarray, h: int) -> list[int]:
    """counts[v + h] = #{m : S(m) = v}: small-case reference of window_histograms."""
    if sums.size == 0:
        raise ValueError("empty window series")
    return np.bincount((sums + h).astype(np.int64), minlength=2 * h + 1).tolist()


def _sum_dtype(h: int) -> np.dtype:
    """The narrowest dtype that holds every window sum of at most h symbols."""
    return np.dtype(np.int8 if h < 2**7 else np.int16 if h < 2**15 else np.int32)


def _doubling_sums(symbols: np.ndarray, h: int, g: int) -> np.ndarray:
    """Sums of h consecutive columns, out[:, i] = sum of symbols[:, i : i+h].

    w_1 is the int8 symbols and w_2k[i] = w_k[i] + w_k[i + k]; the sum is the
    w_k of the set bits k of h, each taken at the offset of the lower bits.
    w_2k holds window sums of 2k symbols, so it is formed in _sum_dtype(2k),
    and the running sum, of at most h symbols, in _sum_dtype(h): the levels
    below 2**7 stay int8 for every h.
    """
    dtype = _sum_dtype(h)
    w, k, offset, acc = symbols, 1, 0, None
    while True:
        if h & k:
            piece = w[:, offset : offset + g]
            acc = piece if acc is None else np.add(acc, piece, dtype=dtype)
            offset += k
        if 2 * k > h:
            return acc
        w = np.add(w[:, :-k], w[:, k:], dtype=_sum_dtype(2 * k))
        k *= 2


def _pair_counts(row: np.ndarray, low: int, r: int) -> np.ndarray:
    """counts[i] = #{m : row[m] = low + i} for a row of values low..low+r-1, r <= 256.

    v = row - low fits a byte, so it is exact when formed mod 2**8, and each
    bincount element is the uint16 code of two consecutive v, one per byte:
    the 256 * r bins of the codes hold the pairs (code // 256, code % 256).
    The count of value low + i is the i-th column sum plus the i-th row sum
    of those bins, whichever byte order the codes have.  The last value of
    an odd row is added on its own.
    """
    v = np.subtract(row, low, out=np.empty(row.size, dtype=np.uint8), casting="unsafe")
    pairs = np.bincount(v[: row.size // 2 * 2].view(np.uint16), minlength=256 * r).reshape(r, 256)
    counts = pairs[:, :r].sum(axis=0) + pairs.sum(axis=1)
    if row.size % 2:
        counts[v[-1]] += 1
    return counts


def _histograms(block: np.ndarray, configs) -> list[np.ndarray]:
    """Value histograms of a block's rows (column c is n = c), one config per row.

    A config's rows take their window sums from _doubling_sums.  A lone row
    whose sums span r <= 256 values with 512 * r <= g counts them in pairs
    (_pair_counts): g / 2 intp codes and 256 * r int64 bins, at most 4g bytes
    each, in place of the 8g bytes of intp sums.  Other runs of rows with one
    config count their intp sums, each row offset to its own 2h+1 bins, one
    bincount per slice of rows whose codes fit min(BLOCK_BYTES, _PASS_BYTES),
    a cache-sized pass, in one buffer reused by every slice; a row of more
    than a pass of starts is a slice of its own.  The codes are written in
    the memory order of the sums, which is that of the block: rows inner for
    the transposed n-major blocks of chi_block, columns inner for a tile.
    """
    counts: list = []
    lo = 0
    for config, run in itertools.groupby(configs):
        k = sum(1 for _ in run)
        h, g, m0 = config.h, config.g, config.m_start
        width = 2 * h + 1
        sums = _doubling_sums(block[lo : lo + k, m0 + 1 :], h, g)
        lo += k
        if k == 1:
            low, high = int(sums.min()), int(sums.max())
            if high - low < 256 and 512 * (high - low + 1) <= g:
                hist = np.zeros(width, dtype=np.int64)
                hist[low + h : high + h + 1] = _pair_counts(sums[0], low, high - low + 1)
                counts.append(hist)
                continue
        step = min(k, max(1, min(BLOCK_BYTES, _PASS_BYTES) // (8 * g)))
        buffer = np.empty(step * g, dtype=np.intp)
        offsets = h + width * np.arange(step, dtype=np.intp)[:, None]
        rows_inner = sums.strides[0] < sums.strides[1]
        for a in range(0, k, step):
            n = min(step, k - a)
            codes = buffer[: n * g]
            np.add(sums[a : a + n], offsets[:n], out=codes.reshape(g, n).T if rows_inner else codes.reshape(n, g))
            counts.extend(np.bincount(codes, minlength=width * n).reshape(n, width))
    return counts


def window_histograms(qs, configs) -> list[list[int]]:
    """Value histogram of the window sums S(m), m = m_start..m_start+g-1, per pair.

    Rows of primes share one chi_block, chunked so that the block, its window
    sums and each row's 2h+1 int64 counts stay within BLOCK_BYTES.  Per
    symbol that is 9 + 3 * itemsize bytes, itemsize that of _sum_dtype(h):
    the int8 symbol, the two doubling levels alive and the running sum of
    _doubling_sums, and 8 bytes per start to count the sums, either the intp
    window sum that bincount reads or, for a lone row counted in pairs, the
    intp copy of half a pair code and at most 4 bytes of bins (see
    _histograms); 12 bytes while every h < 2**7, 15 while every h < 2**15,
    and 21 above.  Rows that share a config hold their intp sums only a
    cache-sized pass of rows at a time, so a block's count takes less.  A
    row that does not fit in one block is read from _chi_range in tiles of
    at most (BLOCK_BYTES - 16 * (2h+1)) // 12 (or // 15, // 21) symbols,
    each a block whose column 0 is its first start m; the running counts and the tile's
    own are the 16 * (2h+1).  A tile that cannot hold one start, from
    h = 316551 at the default budget, is refused, as is a row above
    CHI_TABLE_MAX whose jacobi_array tiles would read more than MAX_SEGMENT
    starts after the folds.  That cap sizes the jacobi_array tiles, which
    want long calls; table reads are cheap per call, so below CHI_TABLE_MAX
    a tile also holds at most _PASS_BYTES // 12 (or // 15, // 21) symbols, a
    cache-sized pass, or h starts when h leaves fewer.
    Tiles fold the starts by S(c - m) = (-1|q) S(m), c = q - h - 1: of the
    starts a..c-a in range, a = max(m_start, c - m_start - g + 1), only those
    below c/2 are read, and their counts are added twice, reversed the second
    time when q = 3 mod 4.  The starts before a, the middle c/2 and those
    after c-a are read directly, so a full period reads about (q-h)/2 starts.
    A tiled row of g >= q starts folds whole periods, S(m + q) = S(m): it adds
    g // q times the counts of one period from m_start to those of its first g % q.
    A row of g = q - h starts also reads the h after its last, in tiles, and
    checks sum S = 0 and sum S^2 = hq - h^2 over that period: a miss raises
    AssertionError.
    Warns in the order of qs.  Each modulus is tested prime.
    """
    qs = [prime_modulus(q) for q in qs]
    return [counts.tolist() for counts in _window_histograms(qs, configs, stacklevel=3)]


def _window_histograms(qs, configs, stacklevel: int) -> list[np.ndarray]:
    """window_histograms for moduli its caller has checked prime, as the
    sieve of exceptional_sets does, each histogram an int64 array (object
    when g >= 2**63).  Wrap warnings take stacklevel as warnings.warn
    would here.
    """
    qs, configs = list(qs), list(configs)
    if len(qs) != len(configs):
        raise ValueError(f"{len(qs)} moduli but {len(configs)} window configs")
    spans = []
    for q, config in zip(qs, configs):
        if config.h >= q:
            raise ValueError(f"window length h={config.h} must be < q={q}")
        _warn_if_wraps(q, config, stacklevel)
        spans.append(config.m_start + config.g + config.h - 1)
    h_max = max((c.h for c in configs), default=1)
    per_symbol = 9 + 3 * _sum_dtype(h_max).itemsize
    per_count_row = 8 * (2 * h_max + 1)
    rows = max(1, BLOCK_BYTES // (per_symbol * (max(spans, default=0) + 1) + per_count_row))
    out: list[np.ndarray] = []
    for lo in range(0, len(qs), rows):
        n_max = max(spans[lo : lo + rows])
        # a row goes to tiles when it does not fit in one: a tile holds its
        # symbols beside the running counts and its own
        if per_symbol * (n_max + 1) + 2 * per_count_row <= BLOCK_BYTES:
            out.extend(_histograms(chi_block(qs[lo : lo + rows], n_max), configs[lo : lo + rows]))
            continue
        q, h, g, m0 = qs[lo], configs[lo].h, configs[lo].g, configs[lo].m_start
        step = fit_budget(f"tile of one start at h={h}", h + 1, per_symbol, BLOCK_BYTES - 2 * per_count_row,
                          f"BLOCK_BYTES less {2 * per_count_row} of counts") - h
        if q <= CHI_TABLE_MAX:
            # table reads are cheap per call, so a tile fits a cache-sized
            # pass, or reads 2h symbols when h alone nearly fills one
            step = min(step, max(h, _PASS_BYTES // per_symbol - h))
        # S(m + q) = S(m): the g starts are g // q whole periods from m0 and
        # the first g % q starts once more; counts pass 2**63 only if g does
        periods, rest = divmod(g, q)
        c = q - h - 1
        runs = []
        for stop, weight in ((m0 + rest, 1), (m0 + q, periods)):
            if not weight:
                continue
            # S(c - m) = (-1|q) S(m) with c = q - h - 1, so the starts a..c-a
            # pair up: a start below c/2 is read once and counted for its mirror too
            a = max(m0, c - stop + 1)
            if a < (c + 1) // 2:
                runs += [(m0, a, False, weight), (a, (c + 1) // 2, True, weight),
                         ((c + 1) // 2, c // 2 + 1, False, weight), (c - a + 1, stop, False, weight)]
            else:
                runs.append((m0, stop, False, weight))
        if q > CHI_TABLE_MAX:
            starts = sum(m_hi - m_lo for m_lo, m_hi, _, _ in runs)
            fit_budget(f"the jacobi_array route of q={q}, h={h}", starts, 1, MAX_SEGMENT, "MAX_SEGMENT",
                       "symbols")
        out.append(_tile_counts(q, h, runs, step, np.int64 if g < 2**63 else object))
    for q, config, counts in zip(qs, configs, out):
        h, end = config.h, config.m_start + config.g
        if config.g + h == q:
            # the h starts after the last complete a period, in tiles within budget
            tail = _tile_counts(q, h, [(end, end + h, False, 1)],
                                min(h, (BLOCK_BYTES - 2 * per_count_row) // per_symbol - h), np.int64)
            sums = tuple(_power_sums((counts + tail)[None, :], h, (1, 2))[0].tolist())
            if sums != (0, h * q - h * h):
                raise AssertionError(f"full-period identities fail at q={q}, h={h}: "
                                     f"(sum S, sum S^2) = {sums}, expected (0, {h * q - h * h})")
    return out


def _tile_counts(q: int, h: int, runs, step: int, dtype) -> np.ndarray:
    """Counts of the runs (m_lo, m_hi, mirrored, weight) of starts at q in
    tiles of at most step starts, each a _chi_range block from column 0 = m;
    a mirrored run adds them once more, reversed when q = 3 mod 4."""
    hist = np.zeros(2 * h + 1, dtype=dtype)
    for m_lo, m_hi, mirrored, weight in runs:
        for m in range(m_lo, m_hi, step):
            tile = WindowConfig(h=h, g=min(step, m_hi - m), m_start=0)
            (counts,) = _histograms(_chi_range(q, m, m + tile.g + h - 1)[None, :], [tile])
            counts = counts.astype(dtype, copy=False)
            counts *= weight
            hist += counts
            if mirrored:
                hist += counts[::-1] if q % 4 == 3 else counts
            del counts  # dropped before the next tile is read
    return hist


def power_sum(counts, h: int, j: int) -> int:
    """Exact integer sum of S^j over the series, from its value histogram,
    bin by bin.  Small-case reference of _power_sums."""
    return sum(c * (v - h) ** j for v, c in enumerate(counts) if c)


def _counts_matrix(counts, g: int) -> np.ndarray:
    """One histogram of sample count g as a row for _power_sums: int64
    while g < 2**63, Python ints past it."""
    return np.array([counts], dtype=np.int64 if g < 2**63 else object)


def _power_sums(counts: np.ndarray, h: int, orders) -> np.ndarray:
    """Exact integer power sums of the rows of a histogram matrix,
    out[i, k] = sum over v of counts[i, v] * (v - h)**orders[k].

    One matrix product of the counts with the powers (v - h)**j: in int64
    while g * h**j < 2**63 for the largest row sum g and order j, which
    bounds every partial sum, and in Python ints (object) otherwise.  The
    counts are non-negative, int64 with each row summing below 2**63, or
    object.
    """
    orders = list(orders)
    j_max = max(orders, default=0)
    if counts.dtype != object and int(counts.sum(axis=1).max(initial=0)) * h**j_max < 2**63:
        return counts @ (np.arange(-h, h + 1, dtype=np.int64)[:, None] ** np.array(orders, dtype=np.int64))
    powers = np.array([[v**j for j in orders] for v in range(-h, h + 1)], dtype=object)
    return counts.astype(object) @ powers


def _deviations(counts: np.ndarray, h: int, orders) -> np.ndarray:
    """EmpiricalSummary.deviation(j), j in orders, of every row of a histogram
    matrix, from one _power_sums product: float64, column k holding orders[k].
    Each exact total - g K(j/2, h) (odd j: total) is divided by g in float64
    where all of them and g lie below 2**53, which rounds it correctly, as
    Python's int division does; elsewhere as Python ints."""
    sums = _power_sums(counts, h, [0, *orders])
    g = sums[:, :1]
    targets = np.array([0 if j % 2 else paired_count_exact(j // 2, h) for j in orders], dtype=sums.dtype)
    diffs = sums[:, 1:] - g * targets
    if diffs.dtype == object or not ((np.abs(diffs) < 2**53).all() and (g < 2**53).all()):
        diffs, g = diffs.astype(object), g.astype(object)
    return (diffs / g).astype(float)


def empirical_summary(counts, max_moment: int = 4) -> EmpiricalSummary:
    """The one reducer of a value histogram counts[v + h] = #{m : S(m) = v}.

    Builds the power sums of orders 1..max_moment, for the moments of
    S/sqrt(h); the order-0 sum is the sample count g.  deviation reads any
    order when asked, so max_moment = 0 builds no power sum up front.
    """
    if not 0 <= max_moment <= 12:
        raise ValueError(f"moment order capped at 12, got {max_moment}")
    h, g = len(counts) // 2, sum(counts)
    if len(counts) != 2 * h + 1 or h < 1 or g < 1 or min(counts) < 0:
        raise ValueError(f"need a nonempty histogram of odd length >= 3 and counts >= 0, got {len(counts)} bins")
    orders = range(1, max_moment + 1)
    sums = {0: g} | dict(zip(orders, _power_sums(_counts_matrix(counts, g), h, orders)[0].tolist()))
    moments = {j: total / (g * h ** (j / 2)) for j, total in sums.items()}
    return EmpiricalSummary(h=h, sample_count=g, value_counts=tuple(counts), moments=moments, power_sums=sums)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via math.erf (abs error < 1e-15, well under 1e-10)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def cdf_vs_gaussian(summary: EmpiricalSummary, lambdas, corrected: bool = False) -> dict:
    """Empirical CDF against the Gaussian at each lambda.

    corrected=True compares against Phi(lambda + 1/sqrt(h)), the continuity
    correction for the even integer lattice the window sums live on.
    """
    shift = 1.0 / math.sqrt(summary.h) if corrected else 0.0
    rows = []
    for lam in lambdas:
        emp = summary.cdf(lam)
        ref = normal_cdf(lam + shift)
        rows.append({"lam": float(lam), "empirical": emp, "gaussian": ref, "abs_diff": abs(emp - ref)})
    return {
        "corrected": corrected,
        "rows": rows,
        "max_abs_diff": max(r["abs_diff"] for r in rows) if rows else 0.0,
    }


def polya_vinogradov_check(q: int) -> dict:
    """Max |partial sum of the character| over the period vs sqrt(q) log q.

    P(n) = sum of (k|q) over 1 <= k <= n satisfies P(q-1-n) = -(-1|q) P(n)
    and P(q-1) = P(q) = 0, so the maximum over the period is reached at some
    n <= (q-1)/2: only that half is read, a view of the table.  Above
    CHI_TABLE_MAX, _chi_range refuses a half of more than MAX_SEGMENT symbols.
    The int64 partial sums are taken in passes of min(BLOCK_BYTES,
    _PASS_BYTES) at 16 bytes per symbol, each carrying on from the last
    one's P, so they add one pass to the half, not 16 bytes per symbol.

    For q = 1 mod 4 the character is even, so P(q-1) = 0 reads as
    P((q-1)/2) = 0, checked at no extra cost; a failure raises
    AssertionError.  For q = 3 mod 4 the character is odd and the mirror
    gives P(q-1) = 0 from any half, so the identity checks nothing there.
    """
    q = prime_modulus(q)
    chi = _chi_range(q, 1, (q - 1) // 2)
    # int64 partial sums, up to (q-1)/2, a pass at a time, each carrying on
    # from the last one's P: 16 bytes per symbol, the sums and cumsum's cast
    step = min(BLOCK_BYTES, _PASS_BYTES) // 16
    sums = np.empty(min(step, chi.size), dtype=np.int64)
    peak = total = 0
    for lo in range(0, chi.size, step):
        partial = np.cumsum(chi[lo : lo + step], dtype=np.int64, out=sums[: chi.size - lo])
        partial += total
        peak = max(peak, int(partial.max()), -int(partial.min()))
        total = int(partial[-1])
    if q % 4 == 1 and total:
        raise AssertionError(f"P(q-1) = 2 * P((q-1)/2) = {2 * total} != 0 at q={q}")
    bound = math.sqrt(q) * math.log(q)
    return {"q": q, "max_partial_sum": peak, "bound": bound, "ratio": peak / bound}


def incomplete_poly_sum(q: int, gamma, x: int, y: int) -> int:
    """Sum over x < n <= x+y of prod_i (n + gamma_i | q).

    Symbols are multiplied term-wise; the polynomial product of the shifted
    arguments is never formed.  Offsets must be distinct mod q.  Above
    CHI_TABLE_MAX, more than MAX_SEGMENT symbols y * len(gamma) are refused.
    The sum runs in chunks of n that fit min(BLOCK_BYTES, _PASS_BYTES) at
    k + 2 bytes each for k offsets: the symbols read, at most k per n, the
    int8 products and one bool mask.  A chunk reads one span of symbols
    when the offsets' ranges, (max gamma - min gamma) + n symbols, hold no
    more than k n, each offset a view of it; otherwise one range per
    offset, so no chunk reads more than k n symbols.
    """
    return _incomplete_poly_sum(prime_modulus(q), gamma, x, y)


def _incomplete_poly_sum(q: int, gamma, x: int, y: int) -> int:
    """incomplete_poly_sum for a q its caller has checked prime."""
    gamma = tuple(int(c) for c in gamma)
    if not gamma:
        raise ValueError("need at least one offset")
    if len({c % q for c in gamma}) != len(gamma):
        raise ValueError(f"offsets must be distinct mod q={q}: {gamma}")
    if not 0 < y <= q:
        raise ValueError(f"need 0 < y <= q, got y={y}")
    k = len(gamma)
    if q > CHI_TABLE_MAX:
        fit_budget(f"incomplete sum of {k} offsets over y={y} at q={q}", y * k, 1, MAX_SEGMENT, "MAX_SEGMENT",
                   "symbols")
    first, spread = min(gamma), max(gamma) - min(gamma)
    total = 0
    step = min(BLOCK_BYTES, _PASS_BYTES) // (k + 2)
    for lo in range(x + 1, x + y + 1, step):
        n = min(step, x + y + 1 - lo)
        if spread + n <= k * n:
            span = _chi_range(q, lo + first, lo + first + spread + n - 1)
            reads = (span[c - first : c - first + n] for c in gamma)
        else:
            reads = (_chi_range(q, lo + c, lo + c + n - 1) for c in gamma)
        acc = next(reads)
        for i, chi in enumerate(reads):
            # the first product is a new array; acc may be a view of the table
            acc = np.multiply(acc, chi, out=acc if i else None)
        total += int(np.count_nonzero(acc > 0)) - int(np.count_nonzero(acc < 0))
    return total


def weil_bound_check(q: int, gamma, x: int, y: int) -> dict:
    """Incomplete sum against the 9 * k * sqrt(q) * log(q) bound."""
    return _weil_record(prime_modulus(q), gamma, x, y)


def _weil_record(q: int, gamma, x: int, y: int) -> dict:
    """weil_bound_check for a q its caller has checked prime, as the sieve
    of random_weil_instances does for weil_bound_battery."""
    value = _incomplete_poly_sum(q, gamma, x, y)
    k = len(tuple(gamma))
    bound = 9.0 * k * math.sqrt(q) * math.log(q)
    return {
        "q": q,
        "k": k,
        "x": x,
        "y": y,
        "value": value,
        "bound": bound,
        "ratio": abs(value) / bound,
        "holds": abs(value) < bound,
    }


def random_weil_instances(trials: int, q_lo: int, q_hi: int, k_max: int, seed: int) -> list[dict]:
    """Seeded random (q, gamma, x, y) instances for the incomplete-sum bound."""
    if trials < 1 or k_max < 1:
        raise ValueError("need trials >= 1 and k_max >= 1")
    pool = primes_in_interval(max(3, q_lo), q_hi)
    if not pool:
        raise ValueError(f"no odd primes in [{q_lo}, {q_hi}]")
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        q = rng.choice(pool)
        k = min(rng.randint(1, k_max), q)  # offsets are distinct mod q
        gamma = tuple(sorted(rng.sample(range(q), k)))
        y = rng.randint(1, q)
        x = rng.randrange(0, q)
        out.append({"q": q, "gamma": gamma, "x": x, "y": y})
    return out


def weil_bound_battery(trials: int, q_lo: int, q_hi: int, k_max: int, seed: int) -> list[dict]:
    """weil_bound_check of each random_weil_instances trial, in trial order,
    gamma as a list; the sieve's moduli are not tested prime again.  The
    run's y * len(gamma) above CHI_TABLE_MAX is refused past MAX_SEGMENT
    before any read.  The trials run in order of q: each table is built once."""
    instances = random_weil_instances(trials, q_lo, q_hi, k_max, seed=seed)
    symbols = sum(inst["y"] * len(inst["gamma"]) for inst in instances if inst["q"] > CHI_TABLE_MAX)
    fit_budget(f"weil-check of {len(instances)} trials", symbols, 1, MAX_SEGMENT, "MAX_SEGMENT", "symbols",
               "the jacobi_array reads at q > CHI_TABLE_MAX")
    checks = [None] * len(instances)
    for i in sorted(range(len(instances)), key=lambda i: instances[i]["q"]):
        inst = instances[i]
        checks[i] = _weil_record(inst["q"], inst["gamma"], inst["x"], inst["y"]) | {"gamma": list(inst["gamma"])}
    return checks
