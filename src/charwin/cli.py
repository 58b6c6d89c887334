"""Command-line front end over the experiment modules' public calls, whose
budgets and identity checks a library caller meets as well.

Every subcommand emits a result envelope: JSON with the resolved experiment
config, the results payload, library versions, and any warnings raised
during the run.  Identical config and seed produce byte-identical envelopes
up to the ``meta`` block (timestamp, runtime, execution knobs such as
thread count).  Runs are single-process; ``--threads`` is accepted and
recorded in ``meta`` only.  The JSON is byte for byte the stdlib's
``json.dumps(envelope, indent=2, sort_keys=True)``: ASCII-escaped, with
``NaN`` and ``Infinity`` literals.  ``_json_text`` makes that one call,
in which every record table of the results, held as columns
(``_RecordColumns``), stands in as a placeholder; each placeholder is then
replaced by its records, written one template per record.  ``--format csv``
projects the main table of each command from the same columns instead,
floats at 12 significant digits.

Exit codes: 0 success; 1 a guaranteed inequality failed (these signal
implementation bugs, never findings); 2 invalid configuration or input.

Configs may live in an INI file (``--config``): values are read from the
section named after the subcommand (with ``[DEFAULT]`` fallback), and any
flag given on the command line wins over the file.  A key that the section
sets and its command does not read, or a ``[DEFAULT]`` key that no command
reads, is refused (exit 2).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import io
import json
import math
import operator
import platform
import sys
import time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable

import numpy as np

from . import __version__
from .arith import ExperimentWarning, prime_density_check, prime_modulus
from .prime_avg import (
    IntervalSpec,
    derivative_check,
    exceptional_sets,
    growth_schedule,
    interval_primes,
    random_sparse_vectors,
    variance_ratio_battery,
)
from .selberg import abs_weight_sum, build_selberg, interval_weight_sum, verify_indicator
from .squares import gaussian_moment, paired_count_theta
from .windows import WindowConfig, cdf_vs_gaussian, empirical_summary, weil_bound_battery, window_histograms

SCHEMA_VERSION = "1"

_REQUIRED = object()


# ---------------------------------------------------------------------------
# value parsers: each takes the flag text and returns (value, jsonable echo)

def _same(kind: Callable[[str], object]):
    """A parser whose value, kind(raw), is also its echo."""
    return lambda raw: (kind(raw),) * 2


def _one_of(name: str, *allowed):
    """A parser that accepts only the allowed values, each of their type."""

    def convert(raw: str):
        v = type(allowed[0])(raw)
        if v not in allowed:
            raise ValueError(f"{name} must be {' or '.join(map(repr, allowed))}, got {raw!r}")
        return v, v

    return convert


def _conv_bool(raw: str):
    text = raw.strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True, True
    if text in ("0", "false", "no", "off"):
        return False, False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _conv_interval(raw: str):
    lo, sep, width = raw.partition(":")
    if not sep:
        raise ValueError(f"expected Q:DELTA, got {raw!r}")
    spec = IntervalSpec(q_start=int(lo), delta=int(width))
    return spec, {"q_start": spec.q_start, "delta": spec.delta}


def _conv_schedule(raw: str):
    kind, _, rest = raw.partition(":")
    if kind == "table":
        pairs = []
        for tok in rest.split(","):
            point, sep, value = tok.partition("=")
            if not sep:
                raise ValueError(f"table entries look like Q=V, got {tok!r}")
            pairs.append((int(point), float(value)))
        return growth_schedule(kind, *pairs), raw
    params = tuple(float(tok) for tok in rest.split(":") if tok) if rest else ()
    return growth_schedule(kind, *params), raw


def _conv_g_single(raw: str):
    # "full" = one window start per admissible m (g = q - h), the
    # complete-coverage run; anything else is a schedule evaluated at q.
    if raw.strip() == "full":
        return "full", "full"
    return _conv_schedule(raw)


def _conv_lambdas(raw: str):
    values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if not values:
        raise ValueError(f"expected a comma-separated grid, got {raw!r}")
    return values, list(values)


def _conv_battery(raw: str):
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected COUNT:LENGTH:SUPPORT, got {raw!r}")
    count, length, support = (int(p) for p in parts)
    return (count, length, support), {"count": count, "length": length, "support": support}


@dataclass(frozen=True)
class _Opt:
    """One CLI option: flag text, converter, default (string form), help."""

    flag: str
    convert: Callable[[str], tuple]
    default: object = _REQUIRED
    help: str = ""
    is_flag: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    @property
    def key(self) -> str:
        return self.flag.lstrip("-")


# execution/IO knobs: never part of the experiment identity, echoed in meta
_EXEC_OPTS = (
    _Opt("--format", _one_of("format", "json", "csv"), "json",
         "output format: json envelope or csv table"),
    _Opt("--out", _same(str), None, "write output to this path instead of stdout"),
    _Opt("--threads", _same(int), "1",
         "accepted and recorded in meta; every run is single-process"),
)


@functools.lru_cache(maxsize=None)
def _build_parser(commands: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of the named subcommands.  main passes only the one its
    argv names; that command's help and errors read as in the full parser.
    Built once per process for each tuple: parse_args keeps no state between
    calls, and main asks for one tuple per command and the tuple of all."""
    parser = argparse.ArgumentParser(
        prog="charwin",
        description="experiments on sums of consecutive quadratic-residue symbols",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in commands:
        summary, _, opts = _COMMANDS[name]
        sp = sub.add_parser(name, help=summary, description=summary)
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="INI file; flags given here win over its values")
        for opt in opts + _EXEC_OPTS:
            if opt.is_flag:
                sp.add_argument(opt.flag, dest=opt.dest, action="store_const",
                                const="true", default=None, help=opt.help)
            else:
                sp.add_argument(opt.flag, dest=opt.dest, default=None,
                                metavar="V", help=opt.help)
    return parser


def _resolve(command: str, args: argparse.Namespace):
    """Merge flags > config file > defaults into typed values plus a JSON echo."""
    section = None
    if args.config is not None:
        cp = configparser.ConfigParser()
        with open(args.config) as fh:
            cp.read_file(fh)
        section = cp[command] if cp.has_section(command) else cp["DEFAULT"]
        # a key the section sets is one its command reads; a [DEFAULT] key,
        # which the section inherits unless it sets its own value, one that
        # some command reads
        read = {opt.key for opt in _COMMANDS[command][2] + _EXEC_OPTS}
        known = read.union(*({opt.key for opt in opts} for _, _, opts in _COMMANDS.values()))
        defaults = cp.defaults()
        for key in section:
            if key in defaults and section.get(key, raw=True) == defaults[key]:
                if key not in known:
                    raise ValueError(f"{command}: --config key {key!r} in [DEFAULT] is not an option of any command")
            elif key not in read:
                raise ValueError(f"{command}: --config key {key!r} in [{command}] is not an option of {command}")

    _, _, opts = _COMMANDS[command]
    values: dict[str, object] = {}
    echo: dict[str, object] = {}
    exec_values: dict[str, object] = {}
    for opt in opts + _EXEC_OPTS:
        raw = getattr(args, opt.dest)
        if raw is None and section is not None and opt.key in section:
            raw = section[opt.key]
        if raw is None:
            raw = opt.default
        if raw is _REQUIRED:
            raise ValueError(f"{command}: missing required option {opt.flag}")
        if raw is None:
            value = shown = None
        else:
            try:
                value, shown = opt.convert(raw)
            except ValueError as exc:
                raise ValueError(f"{command}: bad value for {opt.flag}: {exc}") from exc
        if opt in _EXEC_OPTS:
            exec_values[opt.dest] = value
        else:
            values[opt.dest] = value
            echo[opt.key] = shown
    return values, echo, exec_values


# ---------------------------------------------------------------------------
# runners: cfg -> (results payload, all-guarantees-hold flag, CSV table)
# where each record table of the payload is a _RecordColumns, and the CSV
# table is a function giving the (header, rows) pair that --format csv
# prints, called for that format only

Table = Callable[[], tuple]


def _frac(value: Fraction) -> dict:
    return {"exact": f"{value.numerator}/{value.denominator}", "float": float(value)}


class _RecordColumns:
    """Flat records held as ExceptionalReport.columns holds them: name ->
    list, one entry per record, each list of one type.  Every record table
    of an envelope is held so: _records_text writes its JSON and rows its
    CSV table."""

    def __init__(self, columns: dict[str, list]) -> None:
        self.columns = columns

    @classmethod
    def of(cls, records, keys) -> _RecordColumns:
        return cls({key: [rec[key] for rec in records] for key in keys})

    def dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in zip(*self.columns.values())]

    def rows(self, keys):
        return zip(*(self.columns[key] for key in keys))


def _run_clt_single(cfg) -> tuple[dict, bool, Table]:
    q = prime_modulus(cfg["q"])
    h = int(math.floor(cfg["h"](q)))
    g = q - h if cfg["g"] == "full" else int(math.floor(cfg["g"](q)))
    if h < 1 or g < 1:
        raise ValueError(f"schedules gave h={h}, g={g}; both must be >= 1")
    if cfg["mode"] == "strict" and g < math.sqrt(q) * math.log(q):
        warnings.warn(
            f"sample count g={g} is below sqrt(q) log q ~ {math.sqrt(q) * math.log(q):.0f}; "
            "moments may not have settled",
            ExperimentWarning,
            stacklevel=2,
        )
    config = WindowConfig(h=h, g=g, m_start=cfg["m_start"])
    summary = empirical_summary(window_histograms([q], [config])[0], max_moment=cfg["moments"])
    plain = cdf_vs_gaussian(summary, cfg["lambdas"], corrected=False)
    corrected = cdf_vs_gaussian(summary, cfg["lambdas"], corrected=True)
    moments = [
        {
            "j": j,
            "empirical": value,
            "gaussian": float(gaussian_moment(j)),
            "abs_diff": abs(value - gaussian_moment(j)),
        }
        for j, value in sorted(summary.moments.items())
    ]
    results = {
        "q": q,
        "h": h,
        "g": g,
        "moments": moments,
        "cdf_plain": plain,
        "cdf_corrected": corrected,
        "value_counts": list(summary.value_counts),
    }
    header = ["lam", "empirical", "gaussian", "abs_diff",
              "gaussian_corrected", "abs_diff_corrected"]
    return results, True, lambda: (header, [
        [p["lam"], p["empirical"], p["gaussian"], p["abs_diff"], c["gaussian"], c["abs_diff"]]
        for p, c in zip(plain["rows"], corrected["rows"])
    ])


def _run_clt_interval(cfg) -> tuple[dict, bool, Table]:
    spec = cfg["interval"]
    if cfg["mode"] == "strict":
        slope = derivative_check(cfg["g"], spec.q_start, spec.delta)
        if not slope["ok"]:
            warnings.warn(
                f"g-schedule slope exceeds the slowly-varying budget "
                f"(max ratio {slope['max_ratio']:.3g})",
                ExperimentWarning,
                stacklevel=2,
            )
    report = exceptional_sets(
        spec,
        cfg["g"],
        cfg["h"],
        r_max=cfg["rmax"],
        mode=cfg["mode"],
        per_prime_inner=cfg["per_prime_inner"],
        threshold_scale=cfg["threshold_scale"],
        m_start=cfg["m_start"],
    )
    results = vars(report) | {"records": _RecordColumns(report.columns)}
    del results["columns"]
    return results, True, lambda: (list(report.columns), zip(*report.columns.values()))


def _run_rmf_compare(cfg) -> tuple[dict, bool, Table]:
    spec = cfg["interval"]
    count, length, support = cfg["battery"]
    battery = random_sparse_vectors(count, length, seed=cfg["seed"], support=support)
    primes = interval_primes(spec)
    ratios = variance_ratio_battery(spec, battery, primes=primes)
    header = ["index", "lhs", "rhs", "ratio"]
    rows = _RecordColumns.of([{"index": i} | rec for i, rec in enumerate(ratios)], header)
    results = {
        "prime_count": len(primes),
        "rows": rows,
        "max_ratio": max(rows.columns["ratio"]),
    }
    return results, True, lambda: (header, rows.rows(header))


def _run_sieve_verify(cfg) -> tuple[dict, bool, Table]:
    z = cfg["z"]
    level = cfg["level"] if cfg["level"] is not None else z
    system = build_selberg(z, level)
    report = verify_indicator(system, cfg["nmax"])
    results = {
        "z": z,
        "level": level,
        "sifting_primes": list(system.sifting_primes),
        "lambda": _RecordColumns.of([{"d": d} | _frac(v) for d, v in sorted(system.lambda_base.items())],
                                    ["d", "exact", "float"]),
        "rho": _RecordColumns.of([{"e": e} | _frac(v) for e, v in sorted(system.rho.items())],
                                 ["e", "exact", "float"]),
        "indicator": {
            "n_max": report["n_max"],
            "rough_count": report["rough_count"],
            "min_value": _frac(report["min_value"]),
            "ok": report["ok"],
        },
        "abs_weight_sum": _frac(abs_weight_sum(system)),
    }
    if cfg["interval"] is not None:
        spec = cfg["interval"]
        sums = interval_weight_sum(system, spec.q_start, spec.delta)
        results["interval_weight_sum"] = {
            "total": _frac(sums["total"]),
            "comparator": sums["comparator"],
            "ratio": sums["ratio"],
            "odd_only": sums["odd_only"],
        }
    return results, True, lambda: (["e", "rho", "rho_float"], results["rho"].rows(["e", "exact", "float"]))


def _run_weil_check(cfg) -> tuple[dict, bool, Table]:
    spec = cfg["interval"]
    checks = weil_bound_battery(cfg["trials"], spec.q_start, spec.q_start + spec.delta, cfg["kmax"], cfg["seed"])
    header = ["q", "k", "x", "y", "gamma", "value", "bound", "ratio", "holds"]
    failures = [rec for rec in checks if not rec["holds"]]
    table = _RecordColumns.of(checks, header)
    results = {
        "trials": len(checks),
        "holds": len(checks) - len(failures),
        "max_ratio": max(table.columns["ratio"]),
        "checks": table,
        "failures": _RecordColumns.of(failures, header),
    }
    return results, not failures, lambda: (header, table.rows(header))


def _run_ktheta(cfg) -> tuple[dict, bool, Table]:
    if cfg["rmax"] < 1 or cfg["hmax"] < 1:
        raise ValueError("need rmax >= 1 and hmax >= 1")
    counts = [paired_count_theta(r, h) for r in range(1, cfg["rmax"] + 1) for h in range(r, cfg["hmax"] + 1)]
    if not counts:
        raise ValueError(f"no (r, h) pairs with r <= h <= {cfg['hmax']}")
    header = ["r", "h", "K", "theta"]
    rows = _RecordColumns.of([{"r": pc.r, "h": pc.h, "K": pc.count, "theta": pc.theta} for pc in counts], header)
    results = {
        "rows": rows,
        "theta_min": min(rows.columns["theta"]),
        "theta_max": max(rows.columns["theta"]),
    }
    # paired_count_theta itself fails (exit 1) on a theta outside [0, 1], and clamps into it
    return results, True, lambda: (header, rows.rows(header))


def _run_prime_density(cfg) -> tuple[dict, bool, Table]:
    record = prime_density_check(cfg["x"], cfg["eta"])
    header = ["x", "eta", "length", "count", "comparator", "ratio"]
    return record, record["count"] > 0, lambda: (header, [[record[key] for key in header]])


_COMMANDS: dict[str, tuple[str, Callable[[dict], tuple], tuple[_Opt, ...]]] = {
    "clt-single": (
        "window-sum moments and CDF vs the Gaussian at one prime modulus",
        _run_clt_single,
        (
            _Opt("--q", _same(int), help="odd prime modulus"),
            _Opt("--h", _conv_schedule, "const:100", "window length: const:H or KIND:PARAM"),
            _Opt("--g", _conv_g_single, "full",
                 "sample count: 'full' (q - h) or a schedule such as const:C, log_power:A"),
            _Opt("--moments", _same(int), "4", "highest moment order to report"),
            _Opt("--lambdas", _conv_lambdas, "-2,-1,0,1,2", "CDF comparison grid"),
            _Opt("--m-start", _one_of("m-start", 0, 1), "1", "first window start (0 or 1)"),
            _Opt("--mode", _one_of("mode", "strict", "relaxed"), "relaxed",
                 "strict warns when g is below sqrt(q) log q"),
        ),
    ),
    "clt-interval": (
        "per-prime moment deviations and exceptional fractions over an interval",
        _run_clt_interval,
        (
            _Opt("--interval", _conv_interval, help="prime interval Q:DELTA"),
            _Opt("--g", _conv_schedule, "log_power:3", "sample-count schedule"),
            _Opt("--h", _conv_schedule, "const:5", "window-length schedule"),
            _Opt("--rmax", _same(int), "1", "highest moment order r"),
            _Opt("--mode", _one_of("mode", "strict", "relaxed"), "relaxed",
                 "strict enforces the narrow-window cap"),
            _Opt("--threshold-scale", _same(float), "1.0", "multiplier on the g^(-1/8) threshold"),
            _Opt("--per-prime-inner", _conv_bool, "false", is_flag=True,
                 help="average over m <= g(q) instead of g(Q)"),
            _Opt("--m-start", _one_of("m-start", 0, 1), "1", "first window start (0 or 1)"),
        ),
    ),
    "rmf-compare": (
        "prime-average character variance vs the multiplicative-model bound",
        _run_rmf_compare,
        (
            _Opt("--interval", _conv_interval, help="prime interval Q:DELTA"),
            _Opt("--battery", _conv_battery, "50:100:8",
                 "random sparse vectors COUNT:LENGTH:SUPPORT"),
            _Opt("--seed", _same(int), "1", "battery generation seed"),
        ),
    ),
    "sieve-verify": (
        "build sieve weights and verify the indicator-domination properties",
        _run_sieve_verify,
        (
            _Opt("--z", _same(int), help="sift odd primes below z"),
            _Opt("--level", _same(int), None, "support level D (default: z)"),
            _Opt("--nmax", _same(int), "100000", "verify the indicator up to this n"),
            _Opt("--interval", _conv_interval, None,
                 "optional Q:DELTA: sum the weights over odd q in (Q, Q+DELTA]"),
        ),
    ),
    "weil-check": (
        "random incomplete character sums against the 9 K sqrt(q) log q bound",
        _run_weil_check,
        (
            _Opt("--trials", _same(int), "1000", "number of random instances"),
            _Opt("--interval", _conv_interval, "1000:99000", "prime range Q:DELTA"),
            _Opt("--kmax", _same(int), "4", "max number of distinct offsets"),
            _Opt("--seed", _same(int), "1", "instance generation seed"),
        ),
    ),
    "ktheta": (
        "fully-paired tuple counts K(r, h) and the extracted theta(r, h)",
        _run_ktheta,
        (
            _Opt("--rmax", _same(int), "3", "highest pairing order r"),
            _Opt("--hmax", _same(int), "8", "highest window length h"),
        ),
    ),
    "prime-density": (
        "count primes in the short interval (x, x + x^eta]",
        _run_prime_density,
        (
            _Opt("--x", _same(int), help="left endpoint"),
            _Opt("--eta", _same(float), "0.525", "interval-length exponent"),
        ),
    ),
}


# ---------------------------------------------------------------------------
# rendering

def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


_LITERAL = {bool: ("false", "true").__getitem__, int: int.__repr__, float: float.__repr__,
            str: json.encoder.encode_basestring_ascii}


def _records_text(columns: dict[str, list], outer: str) -> str | None:
    """The records of columns as json.dumps(indent=2, sort_keys=True)
    writes their list of dicts, one %-template per record: keys sorted,
    ints and floats by repr, bools as true and false, strings escaped as
    json.dumps escapes them, each distinct value of a column written once,
    and a list of ints one item a line, or [] when empty.  None for a
    non-finite float, a column of another type or of more than one exact
    type, or a list holding anything but ints, which the template does not
    write."""
    inner, deeper, keys = outer + "  ", outer + "    ", sorted(columns)
    if not keys or not columns[keys[0]]:
        return "[]"
    texts = []
    for key in keys:
        column, kind = columns[key], type(columns[key][0])
        if operator.countOf(map(type, column), kind) < len(column):
            return None
        write = _LITERAL.get(kind)
        if kind is list and {type(x) for items in column for x in items} <= {int}:
            sep = f",\n{deeper}  "
            texts.append([f"[\n{deeper}  {sep.join(map(int.__repr__, items))}\n{deeper}]" if items else "[]"
                          for items in column])
            continue
        if write is None:
            return None
        distinct = dict.fromkeys(column)
        if write is float.__repr__:
            if not all(map(math.isfinite, distinct)):
                return None
            if 0.0 in distinct:  # a dict merges 0.0 and -0.0: write value by value
                texts.append(map(write, column))
                continue
        texts.append(map(dict(zip(distinct, map(write, distinct))).__getitem__, column))
    keys_text = (_LITERAL[str](k).replace("%", "%%") for k in keys)
    template = "{\n" + ",\n".join(f"{deeper}{k}: %s" for k in keys_text) + f"\n{inner}}}"
    return f"[\n{inner}" + f",\n{inner}".join(map(template.__mod__, zip(*texts))) + f"\n{outer}]"


def _json_text(obj) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, byte for
    byte, records held as columns written as their list of dicts.

    The stdlib lays out the whole of obj in one call, each _RecordColumns in
    it standing in as a placeholder string; each placeholder is then
    replaced at the indent of its own line by _records_text, or, where that
    declines, by the stdlib's text of the table's dicts.  A placeholder whose
    text occurs anywhere else in the dump, as a string or a key equal to it,
    sends the whole of obj to the stdlib with every table as its dicts.
    """
    tables: list[_RecordColumns] = []

    def hold(table: _RecordColumns) -> str:
        tables.append(table)
        return f"<records {len(tables)}>"

    text = json.dumps(obj, indent=2, sort_keys=True, default=hold)
    marks = [f'"<records {i}>"' for i in range(1, len(tables) + 1)]
    if any(text.count(mark) != 1 for mark in marks):
        return json.dumps(obj, indent=2, sort_keys=True, default=_RecordColumns.dicts)
    pieces = []
    for mark, table in zip(marks, tables):
        before, _, text = text.partition(mark)
        line = before[before.rfind("\n") + 1:]
        indent = line[:len(line) - len(line.lstrip(" "))]
        records = _records_text(table.columns, indent)
        if records is None:
            records = json.dumps(table.dicts(), indent=2, sort_keys=True).replace("\n", "\n" + indent)
        pieces += [before, records]
    return "".join([*pieces, text])


def _render(envelope: dict, table: Table | None, fmt: str) -> str:
    if fmt == "json" or table is None:
        return _json_text(envelope) + "\n"
    header, rows = table()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # one subparser instead of all of them when argv names its command;
    # --help, --version and an unknown command take the full parser
    args = _build_parser(tuple(argv[:1]) if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)).parse_args(argv)
    started = time.perf_counter()
    try:
        cfg, echo, exec_cfg = _resolve(args.command, args)
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"charwin: {exc}", file=sys.stderr)
        return 2

    captured: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, ok, table = _COMMANDS[args.command][1](cfg)
        captured = [str(w.message) for w in caught]
    except AssertionError as exc:  # guaranteed inequality failed: exit 1
        results, ok, table = {"ok": False, "error": str(exc)}, False, None
    except ValueError as exc:
        print(f"charwin: {exc}", file=sys.stderr)
        return 2

    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": echo,
        "results": results,
        "versions": {
            "charwin": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "warnings": captured,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "runtime_seconds": time.perf_counter() - started,
            "threads": exec_cfg["threads"],
        },
    }
    text = _render(envelope, table, exec_cfg["format"])
    if exec_cfg["out"] is not None:
        try:
            with open(exec_cfg["out"], "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"charwin: cannot write --out {exec_cfg['out']}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
