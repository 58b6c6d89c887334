"""Output checks for benchmark samples.

A call passes when it exits 0, its envelope (``meta`` removed) matches the
sha256 recorded in ``expected.json`` for its argv, if one is recorded, and
a few sampled values recomputed with the slow reference evaluators
(``window_sum``, ``euler_criterion``, ``paired_count_bruteforce``,
``is_prime``) agree with it.  Hashes are recorded for the default seed of
every workload, so every argv that does not depend on the seed is checked
by hash under every seed.

Regenerate the hashes from a trusted commit with
``python3 perfbench/verify.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SAMPLES = 3


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def stable_text(envelope: dict) -> str:
    """The deterministic part of an envelope: everything but ``meta``."""
    return json.dumps({k: v for k, v in envelope.items() if k != "meta"}, sort_keys=True)


def digest(envelope: dict) -> str:
    return hashlib.sha256(stable_text(envelope).encode()).hexdigest()


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED.read_text())


def check_call(call: dict, expected: dict[str, str], rng: random.Random) -> str | None:
    """None when the call's output is correct, else the reason it is not."""
    if call["code"] != 0:
        return f"exit code {call['code']}"
    try:
        envelope = json.loads(call["output"])
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    want = expected.get(argv_key(call["argv"]))
    if want is not None and digest(envelope) != want:
        return "envelope sha256 differs from the recorded one"
    try:
        return _RECOMPUTE[envelope["command"]](envelope["config"], envelope["results"], rng)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed envelope: {exc!r}"


def _schedule(text: str, q: int) -> float:
    kind, _, param = text.partition(":")
    if kind == "const":
        return float(param)
    if kind == "log_power":
        return math.log(q) ** float(param)
    raise ValueError(f"verifier does not know schedule {text!r}")


def _euler_window(q: int, m: int, h: int) -> int:
    from charwin.arith import euler_criterion

    return sum(euler_criterion(n, q) for n in range(m + 1, m + h + 1))


def _sampled_window(q: int, m: int, h: int) -> int | str:
    """S(m) by window_sum, or a reason when euler_criterion disagrees."""
    from charwin.windows import window_sum

    s = window_sum(q, m, h)
    if s != _euler_window(q, m, h):
        return f"window_sum and euler_criterion disagree at q={q}, m={m}"
    return s


def _check_clt_single(config: dict, results: dict, rng: random.Random) -> str | None:
    q, h, g = results["q"], results["h"], results["g"]
    counts = results["value_counts"]
    if len(counts) != 2 * h + 1 or sum(counts) != g:
        return f"value_counts do not cover g={g} windows of length h={h}"
    m0 = config["m-start"]
    for m in rng.sample(range(m0, m0 + g), SAMPLES):
        s = _sampled_window(q, m, h)
        if isinstance(s, str):
            return s
        if counts[s + h] == 0:
            return f"window sum S({m}) = {s} at q={q} is missing from value_counts"
    return None


def _check_clt_interval(config: dict, results: dict, rng: random.Random) -> str | None:
    from charwin.squares import paired_count_bruteforce

    by_prime: dict[int, list[dict]] = {}
    for rec in results["records"]:
        by_prime.setdefault(rec["q"], []).append(rec)
    if len(by_prime) != results["prime_count"]:
        return "records do not cover prime_count primes"
    q_start = config["interval"]["q_start"]
    m0 = config["m-start"]
    for q in rng.sample(sorted(by_prime), SAMPLES):
        g_source = q if config["per-prime-inner"] else q_start
        g = max(int(math.floor(_schedule(config["g"], g_source))), 1)
        h = int(math.floor(_schedule(config["h"], q)))
        sums = []
        for m in range(m0, m0 + g):
            s = _sampled_window(q, m, h)
            if isinstance(s, str):
                return s
            sums.append(s)
        for rec in by_prime[q]:
            r = rec["r"]
            if rec["parity"] == "even":
                k = paired_count_bruteforce(r, h)
                want = float(Fraction(sum(s ** (2 * r) for s in sums) - g * k, g))
            else:
                want = sum(s ** (2 * r - 1) for s in sums) / g
            if rec["deviation"] != want:
                return f"deviation at q={q}, r={r}, {rec['parity']}: {rec['deviation']} != {want}"
    return None


def _check_rmf_compare(config: dict, results: dict, rng: random.Random) -> str | None:
    from charwin.arith import euler_criterion, is_prime
    from charwin.prime_avg import random_sparse_vectors

    spec = config["interval"]
    lo, delta = spec["q_start"], spec["delta"]
    primes = [q for q in range(lo | 1, lo + delta + 1, 2) if is_prime(q)]
    if results["prime_count"] != len(primes):
        return f"prime_count {results['prime_count']} != {len(primes)} primes by is_prime"
    battery = config["battery"]
    vectors = random_sparse_vectors(battery["count"], battery["length"], config["seed"],
                                    battery["support"])
    for i in rng.sample(range(len(vectors)), SAMPLES):
        support = [(n, c) for n, c in enumerate(vectors[i], 1) if c]
        terms = [abs(sum(c * euler_criterion(n, q) for n, c in support)) ** 2 for q in primes]
        want = math.log(lo) / delta * math.fsum(terms)
        if not math.isclose(results["rows"][i]["lhs"], want, rel_tol=1e-12):
            return f"rmf-compare row {i}: lhs {results['rows'][i]['lhs']} != {want}"
    return None


def _check_weil(config: dict, results: dict, rng: random.Random) -> str | None:
    from charwin.arith import euler_criterion

    checks = results["checks"]
    if len(checks) != results["trials"] or results["failures"]:
        return "weil-check reports failures or a wrong trial count"
    short = sorted(range(len(checks)), key=lambda i: checks[i]["y"] * checks[i]["k"])[:50]
    for i in rng.sample(short, SAMPLES):
        rec = checks[i]
        q, x, y = rec["q"], rec["x"], rec["y"]
        want = sum(math.prod(euler_criterion(n + c, q) for c in rec["gamma"])
                   for n in range(x + 1, x + y + 1))
        if rec["value"] != want or not abs(want) < 9.0 * rec["k"] * math.sqrt(q) * math.log(q):
            return f"weil-check instance {i}: value {rec['value']} != {want} or bound fails"
    return None


def _check_sieve(config: dict, results: dict, rng: random.Random) -> str | None:
    from charwin.arith import is_prime

    rho = {r["e"]: Fraction(r["exact"]) for r in results["rho"]}
    z, n_max = config["z"], config["nmax"]
    for n in rng.sample(range(1, n_max + 1), SAMPLES):
        value = sum(v for e, v in rho.items() if n % e == 0)
        rough = all(n % p for p in range(3, z, 2) if is_prime(p))
        if value < 0 or (rough and value != 1):
            return f"sieve indicator at n={n} is {value} (rough={rough})"
    return None if results["indicator"]["ok"] else "sieve indicator not ok"


def _check_ktheta(config: dict, results: dict, rng: random.Random) -> str | None:
    from charwin.squares import paired_count_bruteforce

    small = [row for row in results["rows"] if row["h"] ** (2 * row["r"]) <= 10**4]
    for row in rng.sample(small, min(SAMPLES, len(small))):
        if row["K"] != paired_count_bruteforce(row["r"], row["h"]):
            return f"K({row['r']}, {row['h']}) = {row['K']} disagrees with enumeration"
    return None


_RECOMPUTE = {
    "clt-single": _check_clt_single,
    "clt-interval": _check_clt_interval,
    "rmf-compare": _check_rmf_compare,
    "weil-check": _check_weil,
    "sieve-verify": _check_sieve,
    "ktheta": _check_ktheta,
}


def record() -> None:
    """Run every workload once at the default seed and write expected.json."""
    import harness
    import workloads

    hashes = {}
    for name in workloads.WHY:
        argvs = workloads.argvs(name, workloads.DEFAULT_SEED)
        sample = harness.run_child(argvs, trace=False)
        if len(sample["calls"]) != len(argvs):
            raise SystemExit(f"{name}: the sample produced no result")
        for call in sample["calls"]:
            if call["code"] != 0:
                raise SystemExit(f"{argv_key(call['argv'])} exited {call['code']}")
            hashes[argv_key(call["argv"])] = digest(json.loads(call["output"]))
    EXPECTED.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {EXPECTED}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/verify.py --record")
    record()
