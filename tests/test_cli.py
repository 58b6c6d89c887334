"""End-to-end checks of the command-line front end.

Most tests call ``cli.main`` in-process and read stdout/stderr through
capsys; one test exercises the installed console script for real.
"""

import ast
import configparser
import csv
import io
import json
import json.encoder
import math
import shutil
import subprocess
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charwin import arith, cli, prime_avg, rmf, windows
from charwin.windows import random_weil_instances


def _run(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _envelope(argv, capsys):
    rc, out, err = _run(argv, capsys)
    assert err == ""
    return rc, json.loads(out)


ENVELOPE_KEYS = {"schema_version", "command", "config", "results",
                 "versions", "warnings", "meta"}


def test_ktheta_csv_golden(capsys):
    rc, out, err = _run(["ktheta", "--rmax", "2", "--hmax", "3", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,h,K,theta"
    assert lines[1] == "1,1,1,0"
    assert lines[2] == "1,2,2,0"
    # theta(2, 3) = (3 - sqrt 7)/2 rendered at 12 significant digits
    assert lines[-1] == "2,3,21,0.177124344468"


def test_envelope_shape_and_config_echo(capsys):
    rc, env = _envelope(["clt-single", "--q", "101", "--h", "const:10"], capsys)
    assert rc == 0
    assert set(env) == ENVELOPE_KEYS
    assert env["schema_version"] == "1"
    assert env["command"] == "clt-single"
    assert env["config"]["q"] == 101
    assert env["config"]["g"] == "full"
    # execution knobs stay out of the experiment identity
    assert "threads" not in env["config"]
    assert "format" not in env["config"]
    assert env["meta"]["threads"] == 1
    assert env["results"]["g"] == 101 - 10
    assert {m["j"] for m in env["results"]["moments"]} >= {1, 2, 3, 4}


def test_repeat_runs_identical_outside_meta(capsys):
    argv = ["clt-single", "--q", "103", "--h", "const:8", "--moments", "3"]
    _, first = _envelope(argv, capsys)
    _, second = _envelope(argv, capsys)
    assert first["meta"]["timestamp"] != "" and second["meta"]["timestamp"] != ""
    first.pop("meta")
    second.pop("meta")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_thread_count_does_not_change_payload(tmp_path, capsys):
    base = ["clt-interval", "--interval", "1000:300", "--g", "const:64",
            "--h", "const:3"]
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path, threads in zip(paths, ("1", "3")):
        rc = cli.main(base + ["--threads", threads, "--out", str(path)])
        assert rc == 0
    capsys.readouterr()
    one, two = (json.loads(p.read_text()) for p in paths)
    assert one["meta"]["threads"] == 1 and two["meta"]["threads"] == 3
    one.pop("meta")
    two.pop("meta")
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_wrap_warnings_survive_any_thread_count(tmp_path, capsys):
    # every prime q <= 67 of the interval has g + h = 67 >= q; each warns
    # once, in prime order, ahead of the relaxed-mode note
    base = ["clt-interval", "--interval", "11:200", "--g", "const:64",
            "--h", "const:3", "--rmax", "2"]
    envs = []
    for threads in ("1", "4"):
        path = tmp_path / f"run{threads}.json"
        assert cli.main(base + ["--threads", threads, "--out", str(path)]) == 0
        envs.append(json.loads(path.read_text()))
    capsys.readouterr()
    assert [env.pop("meta")["threads"] for env in envs] == [1, 4]
    assert json.dumps(envs[0], sort_keys=True) == json.dumps(envs[1], sort_keys=True)
    wraps = [w for w in envs[0]["warnings"] if "wrap around" in w]
    assert len(wraps) == 15
    assert wraps[0].endswith("full period of q = 11; starting points wrap around")
    assert wraps[-1].endswith("full period of q = 67; starting points wrap around")
    relaxed = [i for i, w in enumerate(envs[0]["warnings"]) if w.startswith("relaxed mode")]
    assert relaxed == [len(envs[0]["warnings"]) - 1]


def test_same_seed_same_battery(capsys):
    argv = ["rmf-compare", "--interval", "1000:200", "--battery", "3:40:4",
            "--seed", "7"]
    _, first = _envelope(argv, capsys)
    _, second = _envelope(argv, capsys)
    assert first["results"] == second["results"]
    assert first["results"]["max_ratio"] > 0


def test_sparse_interval_warning_appears_once(capsys):
    rc, env = _envelope(["rmf-compare", "--interval", "1000:100", "--battery", "2:20:3"], capsys)
    assert rc == 0
    assert env["results"]["prime_count"] == 16
    assert [w for w in env["warnings"] if "statistically weak" in w] == [
        "only 16 primes in [1000, 1100]; averages will be statistically weak"
    ]


def test_rmf_compare_tests_no_modulus_for_primality(monkeypatch, capsys):
    # the interval's moduli come from the sieve, which proves them prime
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    rc, env = _envelope(["rmf-compare", "--interval", "1000000:100000"], capsys)
    assert rc == 0 and env["results"]["prime_count"] == 7216
    assert calls == []


def test_clt_interval_tests_no_modulus_for_primality(monkeypatch, capsys):
    # the interval's moduli come from the sieve, which proves them prime;
    # the public window_histograms still tests each of its own
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    argv = ["clt-interval", "--interval", "1000000:2000", "--g", "log_power:3", "--h", "const:5", "--rmax", "2"]
    rc, env = _envelope(argv, capsys)
    assert rc == 0 and env["results"]["prime_count"] == 152
    assert calls == []
    with pytest.raises(ValueError, match="odd prime, got 15"):
        windows.window_histograms([15], [windows.WindowConfig(h=2, g=5)])
    assert calls == [15]


def test_rmf_compare_factors_each_battery_index_once(monkeypatch, capsys):
    # the default battery, 50 vectors of length 100, holds at most 100
    # distinct indices; both model terms read one squarefree part of each
    calls = []
    real = rmf.squarefree_part
    monkeypatch.setattr(rmf, "squarefree_part", lambda n: calls.append(n) or real(n))
    rc, env = _envelope(["rmf-compare", "--interval", "1000000:100000"], capsys)
    assert rc == 0 and len(env["results"]["rows"]) == 50
    assert 0 < len(calls) <= 100 and len(set(calls)) == len(calls)


def test_clt_interval_notes_skipped_orders_once_per_h(capsys):
    argv = ["clt-interval", "--interval", "1000000:100000", "--h", "const:1", "--rmax", "2"]
    rc, env = _envelope(argv, capsys)
    assert rc == 0 and env["results"]["prime_count"] == 7216
    assert [w for w in env["warnings"] if "skipped" in w] == ["orders r > h=1 skipped at 7216 prime(s) from q=1000003"]


@pytest.mark.parametrize("per_prime_inner", [False, True])
def test_clt_interval_builds_one_window_config_per_h_and_g(per_prime_inner, monkeypatch, capsys):
    # 152 primes share h = 5 and g = floor(log(10^6)^3) = 2636, or with
    # g(q) per prime the three values it takes over the interval
    built = []
    real = prime_avg.WindowConfig
    monkeypatch.setattr(prime_avg, "WindowConfig", lambda **kw: built.append(kw) or real(**kw))
    argv = ["clt-interval", "--interval", "1000000:2000", "--g", "log_power:3", "--h", "const:5", "--rmax", "2"]
    rc, env = _envelope(argv + ["--per-prime-inner"] * per_prime_inner, capsys)
    assert rc == 0 and env["results"]["prime_count"] == 152
    expected = [2636, 2637, 2638] if per_prime_inner else [2636]
    assert built == [{"h": 5, "g": g, "m_start": 1} for g in expected]


def test_consecutive_interval_blocks_build_the_full_tables_once(capsys):
    # Q = 10^6..10^6+10^4 in five calls of 2000: every block reads the
    # reciprocity tables of the same small primes, so only the first builds
    windows._full_tables.cache_clear()
    for start in range(1_000_000, 1_010_000, 2000):
        argv = ["clt-interval", "--interval", f"{start}:2000", "--g", "log_power:3", "--h", "const:5", "--rmax", "2"]
        assert _envelope(argv, capsys)[0] == 0
    assert windows._full_tables.cache_info()[:2] == (4, 1)  # hits, misses


def test_weil_check_builds_each_table_once_and_tests_no_modulus(monkeypatch, capsys):
    # the moduli come from the sieve, which proves them prime, and the trials
    # run in order of modulus, so the one-table cache misses once per
    # distinct q; the checks keep the order the trials were drawn in
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    windows._cached_table.cache_clear()
    rc, env = _envelope(["weil-check", "--trials", "2000", "--seed", "1"], capsys)
    misses = windows._cached_table.cache_info().misses
    windows._cached_table.cache_clear()
    assert rc == 0 and env["results"]["trials"] == 2000
    assert calls == []
    drawn = random_weil_instances(2000, 1000, 100000, 4, seed=1)
    checks = env["results"]["checks"]
    assert [(c["q"], c["x"], c["y"], tuple(c["gamma"])) for c in checks] == [
        (d["q"], d["x"], d["y"], d["gamma"]) for d in drawn]
    assert misses == len({d["q"] for d in drawn}) == 1790


def test_weil_check_refuses_too_many_trials_before_it_draws(monkeypatch, capsys):
    # 100,000,000 trials of up to 4 offsets would hold about 91 GB of drawn
    # trials and records: refused at once, before a single draw
    draws = []
    monkeypatch.setattr(windows, "random_weil_instances", lambda *args, **kwargs: draws.append(args) or [])
    rc, out, err = _run(["weil-check", "--trials", "100000000", "--interval", "1000000000:1000000"], capsys)
    assert rc == 2 and out == "" and draws == []
    assert err == ("charwin: weil-check of 100000000 trials needs about 91200000000 bytes for the drawn trials "
                   "and their records, over MAX_SEGMENT = 268435456 bytes\n")


def test_weil_check_trial_budget_is_720_plus_48_bytes_per_offset(monkeypatch, capsys):
    # at k_max = 4 a trial counts 912 bytes: a cap of 50 of them runs 50
    # trials and refuses 51 (the cap also bounds the sieve's segment, which
    # the interval's 9001 entries fit)
    monkeypatch.setattr(arith, "MAX_SEGMENT", 912 * 50)
    argv = ["weil-check", "--interval", "1000:9000", "--kmax", "4", "--trials"]
    assert _envelope(argv + ["50"], capsys)[1]["results"]["trials"] == 50
    rc, out, err = _run(argv + ["51"], capsys)
    assert rc == 2 and "weil-check of 51 trials needs about 46512 bytes" in err


def test_rmf_compare_sieves_its_interval_once(monkeypatch, capsys):
    # the battery's primes are the ones prime_count counts: one sieve of
    # [Q, Q + delta] per run
    calls = []
    real = arith._prime_mask
    monkeypatch.setattr(arith, "_prime_mask", lambda lo, hi: calls.append((lo, hi)) or real(lo, hi))
    rc, env = _envelope(["rmf-compare", "--interval", "1000000:100000", "--seed", "1"], capsys)
    assert rc == 0 and env["results"]["prime_count"] == 7216
    assert calls.count((1000000, 1100000)) == 1


def test_full_period_tail_of_a_block_row_builds_no_table(capsys):
    # the h starts after a g = q - h row complete its period; when the row
    # went to a chi_block, their symbols are read off the row, mod q, so no
    # half-period table of q is built
    windows._cached_table.cache_clear()
    rc, env = _envelope(["clt-single", "--q", "1000003", "--h", "const:100", "--g", "full"], capsys)
    misses = windows._cached_table.cache_info().misses
    assert rc == 0 and env["results"]["g"] == 1000003 - 100
    assert misses == 0


def test_config_file_fills_required_and_flags_win(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[ktheta]\nrmax = 2\nhmax = 4\n")
    rc, env = _envelope(["ktheta", "--config", str(ini), "--hmax", "3"], capsys)
    assert rc == 0
    assert env["config"]["rmax"] == 2  # from the file
    assert env["config"]["hmax"] == 3  # flag beats the file
    assert max(row["h"] for row in env["results"]["rows"]) == 3


def test_config_default_section_fallback(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[DEFAULT]\nx = 1000003\n")
    rc, env = _envelope(["prime-density", "--config", str(ini)], capsys)
    assert rc == 0
    assert env["config"]["x"] == 1000003
    assert env["results"]["count"] > 0


@pytest.mark.parametrize("text, argv, refused", [
    ("[clt-interval]\nrmx = 4\n", ["clt-interval", "--interval", "1000:300"], "'rmx' in [clt-interval]"),
    # another command reads interval, but the section sets it for ktheta
    ("[DEFAULT]\ninterval = 1000:300\n[ktheta]\ninterval = 2000:300\n", ["ktheta"], "'interval' in [ktheta]"),
    ("[DEFAULT]\nintervl = 1000:300\n", ["ktheta"], "'intervl' in [DEFAULT]"),
    ("[DEFAULT]\nintervl = 1000:300\n[ktheta]\nrmax = 2\n", ["ktheta"], "'intervl' in [DEFAULT]"),
], ids=["section", "section-over-default", "default", "default-under-section"])
def test_config_refuses_a_key_nothing_reads(tmp_path, capsys, text, argv, refused):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    rc, out, err = _run(argv + ["--config", str(ini)], capsys)
    assert (rc, out) == (2, "")
    assert refused in err


def test_config_default_key_another_command_reads_is_allowed(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[DEFAULT]\ninterval = 1000:300\n[ktheta]\nrmax = 2\ninterval = 1000:300\n")
    rc, env = _envelope(["ktheta", "--config", str(ini)], capsys)
    assert rc == 0 and env["config"] == {"rmax": 2, "hmax": 8}


EXAMPLE_INI = Path(__file__).resolve().parents[1] / "configs" / "example.ini"


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_example_config_runs_every_command(command, capsys):
    ini = configparser.ConfigParser()
    ini.read(EXAMPLE_INI)
    assert ini.has_section(command)
    rc, env = _envelope([command, "--config", str(EXAMPLE_INI)], capsys)
    assert rc == 0
    opts = {opt.key: opt for opt in cli._COMMANDS[command][2]}
    echoed = {key: opts[key].convert(raw)[1] for key, raw in ini[command].items() if key in opts}
    assert set(ini[command]) - set(ini.defaults()) <= set(echoed)
    assert {key: env["config"][key] for key in echoed} == echoed


def test_sieve_verify_tables(capsys):
    rc, env = _envelope(
        ["sieve-verify", "--z", "10", "--level", "9", "--nmax", "5000",
         "--interval", "1000:500"],
        capsys,
    )
    assert rc == 0
    lam = {row["d"]: row["exact"] for row in env["results"]["lambda"]}
    assert lam == {1: "1/1", 3: "-18/23", 5: "-15/23", 7: "-14/23"}
    assert env["results"]["abs_weight_sum"]["exact"] == "3410/529"
    assert env["results"]["indicator"]["ok"] is True
    assert env["results"]["interval_weight_sum"]["ratio"] > 1.0


def test_weil_check_all_hold(capsys):
    rc, env = _envelope(
        ["weil-check", "--trials", "50", "--interval", "1000:9000", "--seed", "3"],
        capsys,
    )
    assert rc == 0
    assert env["results"]["holds"] == env["results"]["trials"] == 50
    assert env["results"]["failures"] == []
    assert 0 < env["results"]["max_ratio"] < 1


def test_clt_single_far_tail_lambdas(capsys):
    # lambda * sqrt(h) = +-2.2e308 used to crash math.floor in the CDF
    rc, env = _envelope(["clt-single", "--q", "101", "--h", "const:5",
                         "--lambdas", "1e308,-1e308"], capsys)
    assert rc == 0
    for key in ("cdf_plain", "cdf_corrected"):
        assert [row["empirical"] for row in env["results"][key]["rows"]] == [1.0, 0.0]


def test_weil_check_with_kmax_above_small_primes(capsys):
    # q = 3, 5, 7 with up to 4 offsets: random.sample used to fail with
    # "Sample larger than population" when k > q was drawn
    rc, env = _envelope(["weil-check", "--interval", "3:10", "--kmax", "4"], capsys)
    assert rc == 0
    assert env["results"]["holds"] == env["results"]["trials"]


def test_prime_density_beyond_2_63_exits_2(capsys):
    x = str(10**400)
    rc, out, err = _run(["prime-density", "--x", x], capsys)
    assert rc == 2 and out == ""
    assert x in err


def test_prime_density_window_past_2_63_names_x_and_eta(capsys):
    # x < 2**63, but the interval (x, x + x**eta] ends past it
    rc, out, err = _run(["prime-density", "--x", "9223372036854775000", "--eta", "1"], capsys)
    assert rc == 2 and out == ""
    assert "x=9223372036854775000, eta=1.0" in err and "2**63" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["--x", str(10**18), "--eta", "0.6"], "segment length 63095734448"),
        (["--x", str(10**17), "--eta", "0.3"], "base sieve to sqrt(hi) = 316227766"),
    ],
)
def test_prime_density_over_budget_names_x_and_eta(argv, names, capsys):
    rc, out, err = _run(["prime-density", *argv], capsys)
    assert rc == 2 and out == ""
    assert f"x={argv[1]}, eta={float(argv[3])}" in err and names in err


def test_sieve_verify_over_budget_exits_2_before_allocating(capsys):
    tracemalloc.start()
    try:
        started = time.perf_counter()
        rc, out, err = _run(["sieve-verify", "--z", "10", "--nmax", str(2**28)], capsys)
        seconds = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert seconds < 1 and peak < 2**20
    assert f"n_max={2**28} needs about {9 * (2**28 + 1)} bytes" in err


def test_strict_mode_warning_lands_in_envelope(capsys):
    rc, env = _envelope(
        ["clt-single", "--q", "101", "--h", "const:5", "--g", "const:10",
         "--mode", "strict"],
        capsys,
    )
    assert rc == 0
    assert any("sqrt(q) log q" in note for note in env["warnings"])


def _parse_exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["bogus"], ["--threads", "1", "ktheta"]]
                         + [[name, *rest] for name in cli._COMMANDS
                            for rest in (["--help"], ["--bogus", "1"], ["--format"], ["extra"])])
def test_one_command_parser_reads_as_the_full_one(argv, capsys):
    # main builds only the subparser its argv names, once per process; help,
    # usage, error text and exit code are those of the parser of every
    # command, on the first call and on the cached parser
    expected = _parse_exit(cli._build_parser.__wrapped__(tuple(cli._COMMANDS)).parse_args, argv, capsys)
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert _parse_exit(cli.main, argv, capsys) == expected
    assert cli._build_parser.cache_info()[:3] == (1, 1, None)  # hits, misses, maxsize
    key = tuple(argv[:1]) if argv and argv[0] in cli._COMMANDS else tuple(cli._COMMANDS)
    assert cli._build_parser(key) is cli._build_parser(key)
    assert cli._build_parser.cache_info()[:2] == (3, 1)


def test_exit_two_on_missing_required(capsys):
    rc, out, err = _run(["clt-interval"], capsys)
    assert rc == 2
    assert out == ""
    assert "--interval" in err


def test_exit_two_on_bad_schedule(capsys):
    rc, out, err = _run(["clt-interval", "--interval", "1000:100", "--g", "bogus:3"], capsys)
    assert rc == 2
    assert "--g" in err
    # a schedule is KIND:PARAMS, with no prefix before the kind
    rc, out, err = _run(["clt-single", "--q", "1009", "--h", "sched:const:5"], capsys)
    assert rc == 2
    assert "--h" in err


def test_exit_two_on_composite_modulus(capsys):
    rc, out, err = _run(["clt-single", "--q", "1000000"], capsys)
    assert rc == 2
    assert err.startswith("charwin:")


def test_exit_two_on_empty_interval(capsys):
    rc, out, err = _run(
        ["clt-interval", "--interval", "1000000:2", "--g", "const:16", "--h", "const:3"],
        capsys,
    )
    assert rc == 2
    assert "no odd primes" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["prime-density", "--x", "9223372036854775808", "--eta", "0.1"],
        ["clt-interval", "--interval", "9223372036854775800:100"],
    ],
)
def test_exit_two_on_interval_past_2_63(argv, capsys):
    started = time.perf_counter()
    rc, out, err = _run(argv, capsys)
    assert time.perf_counter() - started < 1.0
    assert rc == 2
    assert out == ""
    assert "2**63" in err


def test_exit_two_on_missing_config_file(tmp_path, capsys):
    rc, out, err = _run(["ktheta", "--config", str(tmp_path / "absent.ini")], capsys)
    assert rc == 2


def test_exit_one_when_interval_holds_no_prime(capsys):
    # floor(8^0.01) = 1, and (8, 9] contains no prime
    rc, env = _envelope(["prime-density", "--x", "8", "--eta", "0.01"], capsys)
    assert rc == 1
    assert env["results"]["count"] == 0


def test_out_file_suppresses_stdout(tmp_path, capsys):
    target = tmp_path / "density.json"
    rc, out, err = _run(
        ["prime-density", "--x", "1000003", "--out", str(target)], capsys
    )
    assert rc == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["results"]["count"] > 0


@pytest.mark.parametrize("target", ["missing/dir/x.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_exits_2_naming_the_path(target, tmp_path, capsys):
    path = tmp_path / target
    rc, out, err = _run(["ktheta", "--out", str(path)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith(f"charwin: cannot write --out {path}: ") and "Traceback" not in err


def test_json_output_builds_no_records_and_no_csv_table(monkeypatch, capsys):
    # a JSON run renders every record table from its columns, so it
    # constructs no DeviationRecord, and calls no runner's CSV table thunk;
    # --format csv calls the thunk of each of these commands once
    built = []
    real_record = prime_avg.DeviationRecord

    def spied(name, run):
        def runner(cfg):
            results, ok, table = run(cfg)
            return results, ok, lambda: built.append(name) or table()
        return runner

    for name, (summary, run, opts) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (summary, spied(name, run), opts))
    monkeypatch.setattr(prime_avg, "DeviationRecord", lambda *a: built.append("DeviationRecord") or real_record(*a))
    argvs = [["clt-interval", "--interval", "1000:300", "--g", "const:64", "--h", "const:3", "--rmax", "2"],
             ["ktheta"], ["rmf-compare", "--interval", "1000:1000", "--battery", "3:20:4"],
             ["weil-check", "--trials", "5"], ["prime-density", "--x", "1000"],
             ["sieve-verify", "--z", "10", "--nmax", "500"], ["clt-single", "--q", "101", "--h", "const:5"]]
    for argv in argvs:
        assert _envelope(argv, capsys)[0] == 0
    assert built == []
    for argv in argvs:
        assert _run(argv + ["--format", "csv"], capsys)[0] == 0
    assert built == [argv[0] for argv in argvs]
    # the spy sees a report's records built on first read
    report = prime_avg.exceptional_sets(prime_avg.IntervalSpec(1000, 300), prime_avg.growth_schedule("const", 64.0),
                                        prime_avg.growth_schedule("const", 3.0), r_max=1)
    assert len(report.records) == built.count("DeviationRecord") == 2 * report.prime_count


# each command with a records table: its argv, the results key of the
# table, and the record key under each CSV column where the names differ
_TABLES = [
    (["clt-interval", "--interval", "1000:300", "--g", "const:64", "--h", "const:3", "--rmax", "2"], "records", {}),
    (["ktheta", "--rmax", "3", "--hmax", "9"], "rows", {}),
    (["rmf-compare", "--interval", "1000:1000", "--battery", "4:30:5"], "rows", {}),
    (["weil-check", "--trials", "30", "--seed", "7"], "checks", {}),
    (["sieve-verify", "--z", "12", "--nmax", "500"], "rho", {"rho": "exact", "rho_float": "float"}),
    (["prime-density", "--x", "1000003"], None, {}),
]


@pytest.mark.parametrize("argv, key, renamed", _TABLES, ids=[t[0][0] for t in _TABLES])
def test_csv_rows_are_the_json_records(argv, key, renamed, capsys):
    # both formats are written from the same columns: row i of the CSV is
    # record i of the JSON table, cell by cell in header order
    rc, env = _envelope(argv, capsys)
    rc_csv, out, _ = _run(argv + ["--format", "csv"], capsys)
    assert rc == rc_csv == 0
    header, *rows = csv.reader(io.StringIO(out))
    records = [env["results"]] if key is None else env["results"][key]
    assert len(rows) == len(records) > 0
    for row, rec in zip(rows, records):
        assert row == [cli._csv_cell(rec[renamed.get(name, name)]) for name in header]


def test_failing_weil_check_lists_its_failures(monkeypatch, capsys):
    # no real trial fails its bound; the checks whose window starts at a
    # multiple of 3 are made to, and must be listed as failures in trial order
    argv = ["weil-check", "--trials", "60", "--seed", "5"]
    _, held = _envelope(argv, capsys)
    _, held_csv, _ = _run(argv + ["--format", "csv"], capsys)
    real = windows._weil_record

    def failing(q, gamma, x, y):
        rec = real(q, gamma, x, y)
        return rec | {"holds": False} if x % 3 == 0 else rec

    monkeypatch.setattr(windows, "_weil_record", failing)
    rc, out, err = _run(argv, capsys)
    assert rc == 1 and err == ""
    env = json.loads(out)
    checks = held["results"]["checks"]
    failed = [i for i, rec in enumerate(checks) if rec["x"] % 3 == 0]
    assert 0 < len(failed) < len(checks)
    for i in failed:
        checks[i]["holds"] = False
    assert env["results"]["checks"] == checks
    assert env["results"]["failures"] == [checks[i] for i in failed]
    assert env["results"]["holds"] == len(checks) - len(failed)
    assert out == _stdlib(env) + "\n"
    # the CSV still lists every check, with only the failed ones' holds moved
    rc_csv, failing_csv, _ = _run(argv + ["--format", "csv"], capsys)
    assert rc_csv == 1
    header, *rows = csv.reader(io.StringIO(failing_csv))
    expected = list(csv.reader(io.StringIO(held_csv)))
    holds = header.index("holds")
    for i in failed:
        expected[1 + i][holds] = "false"
    assert [header, *rows] == expected


def test_rmf_compare_refuses_a_battery_whose_bound_underflows(monkeypatch, capsys):
    monkeypatch.setattr(cli, "random_sparse_vectors", lambda *a, **k: [(1.0, 0.0), (0.0, 1e-250)])
    rc, out, err = _run(["rmf-compare", "--interval", "1000:1000"], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("charwin: vector 1 is nonzero but its model bound underflows to 0.0")


def test_csv_interval_schema(capsys):
    rc, out, err = _run(
        ["clt-interval", "--interval", "1000:200", "--g", "const:64",
         "--h", "const:3", "--format", "csv"],
        capsys,
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,r,parity,deviation,threshold,exceptional"
    q, r, parity, dev, thr, exc = lines[1].split(",")
    assert int(q) >= 1009 and parity in ("even", "odd")
    float(dev), float(thr)
    assert exc in ("true", "false")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["clt-single", "--q", "101", "--h", "const:5", "--lambdas", "inf"], ["lambda = inf"]),
        (["clt-single", "--q", "101", "--h", "const:5", "--g", "const:inf"], ["--g", "inf"]),
        (["clt-interval", "--interval", "1000:100", "--g", "log_power:inf", "--h", "const:3"], ["--g", "inf"]),
        (["clt-single", "--q", "101", "--h", "const:nan"], ["--h", "nan"]),
    ],
    ids=["lambdas-inf", "g-const-inf", "g-log-power-inf", "h-const-nan"],
)
def test_non_finite_parameters_exit_2(argv, named, capsys):
    # each of these used to end in an OverflowError traceback or a late,
    # unnamed float conversion error
    rc, out, err = _run(argv, capsys)
    assert rc == 2 and out == ""
    for text in named:
        assert text in err


@pytest.mark.parametrize("scale, named", [("nan", "nan"), ("-1", "-1.0")])
def test_bad_threshold_scale_exits_2(scale, named, capsys):
    # nan used to flag no prime (fraction_union 0.0) and -1 every prime (1.0)
    rc, out, err = _run(["clt-interval", "--interval", "1000:100", "--g", "const:20",
                         "--h", "const:3", "--threshold-scale", scale], capsys)
    assert rc == 2 and out == ""
    assert "threshold scale" in err and named in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["clt-single", "--q", "101", "--m-start", "2"],
         "clt-single: bad value for --m-start: m-start must be 0 or 1, got '2'"),
        (["clt-interval", "--interval", "1000:100", "--mode", "x"],
         "clt-interval: bad value for --mode: mode must be 'strict' or 'relaxed', got 'x'"),
        (["ktheta", "--format", "xml"],
         "ktheta: bad value for --format: format must be 'json' or 'csv', got 'xml'"),
    ],
    ids=["m-start", "mode", "format"],
)
def test_choice_options_name_the_allowed_values(argv, message, capsys):
    rc, out, err = _run(argv, capsys)
    assert rc == 2 and out == ""
    assert err == f"charwin: {message}\n"


def test_full_period_identities_catch_a_miscounted_start(monkeypatch, capsys):
    # Over one period, sum S = 0 and sum S^2 = hq - h^2; moving one start of
    # the --g full histogram to the next bin breaks the first, so exit 1.
    # At q = 10^6 + 3, h = 100 the one-row block of the g = q - h starts
    # counts in pairs; the tail of h starts that completes the period does not
    real = windows._pair_counts
    calls = []

    def shifted(row, low, r):
        counts = real(row, low, r)
        calls.append(row.size)
        v = next(v for v, c in enumerate(counts) if c)
        counts[v] -= 1
        counts[v + 1] += 1
        return counts

    argv = ["clt-single", "--q", "1000003", "--h", "const:100", "--g", "full"]
    assert _envelope(argv, capsys)[0] == 0
    monkeypatch.setattr(windows, "_pair_counts", shifted)
    rc, env = _envelope(argv, capsys)
    assert calls == [1000003 - 100]
    assert rc == 1 and not env["results"]["ok"]
    assert "full-period identities" in env["results"]["error"]


def test_cli_imports_no_private_name_or_budget_from_the_package():
    # the CLI is a front end over public calls: every kernel, budget and
    # identity check it runs is reached through the module that owns it
    tree = ast.parse(Path(cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").partition(".")[0] == "charwin") for alias in node.names]
    assert "window_histograms" in names and "weil_bound_battery" in names
    private = [name for name in names if name.startswith("_") and not name.endswith("__")]
    budgets = {"BLOCK_BYTES", "CHI_TABLE_MAX", "MAX_SEGMENT", "fit_budget"} & set(names)
    assert not private and not budgets, (private, budgets)


@pytest.mark.skipif(shutil.which("charwin") is None, reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["charwin", "ktheta", "--rmax", "1", "--hmax", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "r,h,K,theta"


# ---------------------------------------------------------------------------
# the JSON renderer against the stdlib's indent=2, sort_keys=True layout

def _stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


_TEXT = st.text(st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u4e2d",
                                 "\U0001f600", "{", "}", "[", "]", ",", ":", " ", "a", "Z"]), max_size=6)
_NUMBERS = (st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
            | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan, 2**64 + 1]))
_SCALARS = _NUMBERS | _TEXT
# lists of flat records, which a record table falls back to where its
# columns are not written by template; random nesting seldom builds them
_RECORDS = st.lists(st.dictionaries(_TEXT, _SCALARS | st.lists(_NUMBERS, max_size=3) | st.tuples(_NUMBERS)
                                    | st.lists(_SCALARS, max_size=3), min_size=1, max_size=4), min_size=1, max_size=4)
_VALUES = st.recursive(
    _SCALARS | _RECORDS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


# records held as columns, one type to a column, as clt-interval hands them
# to the renderer, at the top and where the envelope nests them; each case
# is (what the renderer gets, the plain list of dicts the stdlib gets)
_INTEGERS = st.integers(-(2**70), 2**70)
# a column of lists of ints, as weil-check's gamma, empty lists included, is
# written by template; a list holding a float, a str or a bool, and a column
# that mixes ints with bools or floats, decline to the list of dicts
_COLUMN_KINDS = st.sampled_from([st.floats(), st.floats(allow_nan=False, allow_infinity=False),
                                 _INTEGERS, st.booleans(), _TEXT, st.none(), st.lists(_INTEGERS, max_size=3),
                                 st.lists(_INTEGERS | st.floats() | _TEXT | st.booleans(), max_size=3),
                                 _INTEGERS | st.booleans(), st.floats() | _INTEGERS])


@st.composite
def _column_cases(draw):
    n = draw(st.integers(0, 5))
    columns = {key: draw(st.lists(draw(_COLUMN_KINDS), min_size=n, max_size=n))
               for key in draw(st.lists(_TEXT, min_size=1, max_size=6, unique=True))}
    plain = [{key: column[i] for key, column in columns.items()} for i in range(n)]
    if draw(st.booleans()):
        return cli._RecordColumns(columns), plain
    return {"results": {"records": cli._RecordColumns(columns), "n": n}}, {"results": {"records": plain, "n": n}}


@given(_VALUES.map(lambda obj: (obj, obj)) | _column_cases())
@example(([{"k": ["a]b", 1], "v": "}, {"}, {"k": [], "w": ":\x00 ["}],) * 2)
@example(([{"a": {"b": [1, 2]}}, {"a": 1}],) * 2)
@example((cli._RecordColumns({"q": [3, 3], "d": [0.0, -0.0], "t": [0.25, 0.25], "p": ["even", "odd"],
                              "x": [True, False]}),
          [{"q": 3, "d": 0.0, "t": 0.25, "p": "even", "x": True},
           {"q": 3, "d": -0.0, "t": 0.25, "p": "odd", "x": False}]))
@example(({"r": {"records": cli._RecordColumns({"t": [1.0, math.inf]})}},
          {"r": {"records": [{"t": 1.0}, {"t": math.inf}]}}))
@example((cli._RecordColumns({"%s%%": [1], "%(a)d": ["%"]}), [{"%s%%": 1, "%(a)d": "%"}]))
@example(({"r": {"checks": cli._RecordColumns({"gamma": [[3, -1, 2**70], []], "q": [5, 7]})}},
          {"r": {"checks": [{"gamma": [3, -1, 2**70], "q": 5}, {"gamma": [], "q": 7}]}}))
@example((cli._RecordColumns({"g": [[1], [2, 0.5]]}), [{"g": [1]}, {"g": [2, 0.5]}]))
@example((cli._RecordColumns({"g": [[], ["1"]]}), [{"g": []}, {"g": ["1"]}]))
@example((cli._RecordColumns({"g": [[True]], "n": [1]}), [{"g": [True], "n": 1}]))
@example((cli._RecordColumns({"n": [1, True]}), [{"n": 1}, {"n": True}]))
@example((cli._RecordColumns({"n": [1.5, 2]}), [{"n": 1.5}, {"n": 2}]))
# a table stands in as the placeholder "<records i>" while the stdlib lays
# out the rest; strings and keys that equal or contain one, with and
# without a table behind it, are written as the strings they are
@example(({"s": "<records 1>", "t": cli._RecordColumns({"n": [1]})}, {"s": "<records 1>", "t": [{"n": 1}]}))
@example(({"<records 1>": 2, "t": cli._RecordColumns({"n": [1]})}, {"<records 1>": 2, "t": [{"n": 1}]}))
@example(({"s": 'a"<records 1>', "t": [cli._RecordColumns({"n": [1]})]}, {"s": 'a"<records 1>', "t": [[{"n": 1}]]}))
@example(({"<records 1>": "<records 1>", "s": ["<records 2>"]},) * 2)
@example((cli._RecordColumns({"n": [1, 2], "p": ["even", "odd"]}), [{"n": 1, "p": "even"}, {"n": 2, "p": "odd"}]))
@example(([1, cli._RecordColumns({"n": [3]}), [cli._RecordColumns({"g": [[2, 5]]})]],
          [1, [{"n": 3}], [[{"g": [2, 5]}]]]))
@example(({"r": {"checks": cli._RecordColumns({"q": [5, 7], "x": [1.5, 2.5]}), "failures": cli._RecordColumns({"q": [7]}),
                "holds": 1}},
          {"r": {"checks": [{"q": 5, "x": 1.5}, {"q": 7, "x": 2.5}], "failures": [{"q": 7}], "holds": 1}}))
@example(({"a": {"b": cli._RecordColumns({"t": [0.5, math.nan]}), "c": cli._RecordColumns({"t": [0.5]})}, "d": []},
          {"a": {"b": [{"t": 0.5}, {"t": math.nan}], "c": [{"t": 0.5}]}, "d": []}))
@settings(max_examples=300, deadline=None)
def test_json_text_matches_the_stdlib(case):
    obj, plain = case
    assert cli._json_text(obj) == _stdlib(plain)


@pytest.mark.parametrize("obj", [
    {1: [2, {"a": []}], 2.5: None, False: {"x": (1,)}, -7: {None: "n"}},
    {"outer": {3: [1, 2], 4: {}}, "list": [{5: 6}, {7: [8]}]},
    [{1: 1, 2: [3, 4]}, {0.5: None, False: (5,)}],
], ids=["top", "nested", "records"])
def test_json_text_non_str_keys_match_the_stdlib(obj):
    assert cli._json_text(obj) == _stdlib(obj)


def test_json_text_without_the_c_encoder(monkeypatch, capsys):
    argv = ["clt-interval", "--interval", "1000:300", "--g", "const:64", "--h", "const:3", "--rmax", "2"]
    with_c = _run(argv, capsys)[1]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    obj = json.loads(with_c)
    assert cli._json_text(obj) == _stdlib(obj)
    without_c = _run(argv, capsys)[1]
    assert without_c == _stdlib(json.loads(without_c)) + "\n"
    payloads = [json.loads(text) for text in (with_c, without_c)]
    for payload in payloads:
        del payload["meta"]
    assert payloads[0] == payloads[1]
