"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the names the ``charwin.*`` modules bind to the
traced functions with wrappers, so every call made through a module global
(``windows.chi_table``, ``prime_avg.window_series``, ``cli.main``, ...) is
seen.  Spanned functions record a span (group, start, end, parent); a
group's time is the sum of its spans' self times, so nested spans of one
group count once and time in another group's child span is left out.
Counted functions (``jacobi``, ``interval_primes``) only count calls: a
wrapper around a ~2 us call would distort it, so their time stays in the
caller's span.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

MODULES = ("arith", "windows", "squares", "prime_avg", "rmf", "selberg", "cli")

# (module, function) -> group whose self time the span adds to
SPANNED = {
    ("arith", "primes_in_interval"): "arith.sieve",
    ("windows", "chi_table"): "windows.chi_table",
    ("windows", "window_series"): "windows.series",
    ("windows", "value_histogram"): "windows.summary",
    ("windows", "power_sum"): "windows.summary",
    ("windows", "empirical_summary"): "windows.summary",
    ("windows", "cdf_vs_gaussian"): "windows.summary",
    ("windows", "incomplete_poly_sum"): "windows.poly_sum",
    ("windows", "weil_bound_check"): "windows.poly_sum",
    ("squares", "paired_count_exact"): "squares.paired_count",
    ("prime_avg", "exceptional_sets"): "prime_avg.sets_self",
    ("prime_avg", "variance_ratio_battery"): "prime_avg.battery",
    ("prime_avg", "random_sparse_vectors"): "prime_avg.battery",
    ("rmf", "rmf_variance_rhs"): "rmf.rhs",
    ("selberg", "build_selberg"): "selberg.build",
    ("selberg", "verify_indicator"): "selberg.verify",
    ("selberg", "interval_weight_sum"): "selberg.verify",
    ("selberg", "abs_weight_sum"): "selberg.verify",
    ("cli", "main"): "cli.self",
}
COUNTED = (("arith", "jacobi"), ("prime_avg", "interval_primes"))

COUNTERS = {
    "arith.jacobi_calls": "count",
    "windows.chi_table_builds": "count",
    "windows.symbols_built": "count",
    "windows.symbols_read": "count",
    "windows.window_starts": "count",
    "windows.series_bytes_computed": "B",
    "windows.poly_terms": "count",
    "squares.paired_count_calls": "count",
    "squares.paired_count_distinct": "count",
    "prime_avg.primes": "count",
    "selberg.rho_terms": "count",
    "cli.output_bytes": "B",
}
UNITS = {
    **{f"{group}_s": "s" for group in sorted(set(SPANNED.values()))},
    **COUNTERS,
    "windows.symbol_use_ratio": "ratio",
}

# int64 prefix plus int64 sums per window start, as window_series allocates
SERIES_BYTES_PER_START = 16


class Tracer:
    """Spans and exact counters for one traced process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [group, start, child_seconds]
        self.group_s = dict.fromkeys(sorted(set(SPANNED.values())), 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.calls: dict[str, list] = {}  # "module.function" -> [calls, inclusive_s, self_s]
        self._paired_args: set = set()

    def install(self) -> None:
        """Rebind every charwin module's name for a traced function to its wrapper."""
        modules = [importlib.import_module(f"charwin.{m}") for m in MODULES]
        modules.append(importlib.import_module("charwin"))
        wrappers = {}
        for mod_name, fn_name in SPANNED:
            fn = getattr(importlib.import_module(f"charwin.{mod_name}"), fn_name)
            wrappers[id(fn)] = self._spanned(f"{mod_name}.{fn_name}", SPANNED[mod_name, fn_name], fn)
        for mod_name, fn_name in COUNTED:
            fn = getattr(importlib.import_module(f"charwin.{mod_name}"), fn_name)
            wrappers[id(fn)] = self._counted(fn_name, fn)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])

    def _spanned(self, qualname: str, group: str, fn):
        stack, group_s = self.stack, self.group_s
        stats = self.calls.setdefault(qualname, [0, 0.0, 0.0])
        after = getattr(self, "_after_" + qualname.split(".")[1], None)
        signature = inspect.signature(fn) if after is not None else None
        is_table = qualname == "windows.chi_table"

        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses if is_table else 0
            frame = [group, 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self_s = duration - frame[2]
                group_s[group] += self_s
                stats[0] += 1
                stats[1] += duration
                stats[2] += self_s
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                bound = signature.bind(*args, **kwargs).arguments
                after(result, built=is_table and fn.cache_info().misses > misses, **bound)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        if name == "jacobi":
            def wrapper(*args, **kwargs):
                counts["arith.jacobi_calls"] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["prime_avg.primes"] += len(result)
                return result
        return wrapper

    # -- counters derived from a traced call's arguments ------------------

    def _after_chi_table(self, result, q, built, **_) -> None:
        if built:
            self.counts["windows.chi_table_builds"] += 1
            self.counts["windows.symbols_built"] += q
            if self.stack and self.stack[-1][0] == "windows.series":
                self.counts["windows.series_bytes_computed"] += q  # int8 table

    def _after_window_series(self, result, config, **_) -> None:
        self.counts["windows.window_starts"] += config.g
        self.counts["windows.symbols_read"] += config.g + config.h - 1
        self.counts["windows.series_bytes_computed"] += SERIES_BYTES_PER_START * config.g

    def _after_incomplete_poly_sum(self, result, gamma, y, **_) -> None:
        terms = y * len(tuple(gamma))
        self.counts["windows.poly_terms"] += terms
        self.counts["windows.symbols_read"] += terms

    def _after_paired_count_exact(self, result, r, h, **_) -> None:
        self.counts["squares.paired_count_calls"] += 1
        self._paired_args.add((r, h))
        self.counts["squares.paired_count_distinct"] = len(self._paired_args)

    def _after_verify_indicator(self, result, system, n_max, **_) -> None:
        self.counts["selberg.rho_terms"] += sum(n_max // e for e in system.rho_scaled)

    def add_output(self, text: str) -> None:
        """Count the bytes of an envelope outside ``meta``, whose timing digits vary."""
        try:
            envelope = json.loads(text)
        except ValueError:
            self.counts["cli.output_bytes"] += len(text.encode())
            return
        envelope.pop("meta", None)
        self.counts["cli.output_bytes"] += len(json.dumps(envelope, indent=2, sort_keys=True).encode()) + 1

    def metrics(self) -> dict[str, float]:
        """Group self times (``<group>_s``), exact counters and the symbol-use ratio."""
        out: dict[str, float] = {f"{g}_s": s for g, s in self.group_s.items()}
        out.update(self.counts)
        built = self.counts["windows.symbols_built"]
        out["windows.symbol_use_ratio"] = self.counts["windows.symbols_read"] / built if built else 0.0
        return out
