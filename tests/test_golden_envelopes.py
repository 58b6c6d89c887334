"""Golden envelopes: one small run of every subcommand, hashed.

Each argv runs once with ``--format json`` and once with ``--format csv``,
under the default ``BLOCK_BYTES`` and again under a budget of 64 symbols at
12 bytes each, less the window counts, that sends every longer window run
through the column-tile route.
The JSON envelope is hashed without ``meta`` (timestamp, runtime, threads)
and ``versions`` (Python and numpy versions), re-serialised with sorted keys
and two-space indent; the CSV text is hashed as printed.  Any change to a
result, a warning, the config echo or a CSV table moves a hash.  A second
test pins the printed JSON itself to that stdlib layout, byte for byte.

To re-record after an intended output change, print the current hashes

    PYTHONPATH=src python3 tests/test_golden_envelopes.py

and paste them over ``GOLDEN``, saying in the change log which output moved
and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from charwin import cli, windows

ARGVS = {
    "clt-single": ["clt-single", "--q", "1009", "--h", "const:10"],
    "clt-single-reciprocity": ["clt-single", "--q", "1000000007", "--h", "const:10",
                               "--g", "const:2000"],
    "clt-interval": ["clt-interval", "--interval", "1000:300", "--g", "const:64",
                     "--h", "const:3", "--rmax", "2"],
    "rmf-compare": ["rmf-compare", "--interval", "1000:500", "--battery", "3:40:4",
                    "--seed", "7"],
    "sieve-verify": ["sieve-verify", "--z", "10", "--level", "9", "--nmax", "5000",
                     "--interval", "1000:500"],
    # weight sums beyond int64: the object-dtype scan of verify_indicator
    "sieve-verify-object": ["sieve-verify", "--z", "60", "--nmax", "20000"],
    "weil-check": ["weil-check", "--trials", "20", "--interval", "1000:9000", "--seed", "3"],
    # short moduli: most symbol ranges wrap past q, some over several periods
    "weil-check-wrap": ["weil-check", "--interval", "3:500", "--trials", "200"],
    "ktheta": ["ktheta", "--rmax", "2", "--hmax", "5"],
    "prime-density": ["prime-density", "--x", "1000003"],
}

GOLDEN = {
    ('clt-interval', 'json'): '06ddde53d85b3a5d86db46d0900a149048593f246cf627f377a99e1eb4f94db9',
    ('clt-interval', 'csv'): 'e4a47f34c847acabf3a64b9e2271cbae9dc0d00a7f3d51c027cecfd66807171a',
    ('clt-single', 'json'): '0bc6fdaf16fa92b64cbf600b0fea53aba3c32b089b7d74352faf681934a64274',
    ('clt-single', 'csv'): '06fc1119e7e5ff389dc71300aa7aed49f02b6f158cfaaf6c3d98b3760d823b53',
    ('clt-single-reciprocity', 'json'): '361c6dfc60e9bd08749d8c38247ee19c98d36c70be30ad1c98933b0993442666',
    ('clt-single-reciprocity', 'csv'): '05cd8e94c124d96ff1bea9a7e8e922a8dd55f12b43aa2d5accfa656928169577',
    ('ktheta', 'json'): '05e750bbcaaa16bd7edee51d59532eaebcf8d303135ae5181cbc444c397badcd',
    ('ktheta', 'csv'): 'f40e8f8e1b43111dde908b57b7056c188a8d37387adc7fe9a3607db60c66674b',
    ('prime-density', 'json'): '04faa88c19ec6632c11a8cc2082f1c2c97363433eacc3e2ffc1539cac3dae2fc',
    ('prime-density', 'csv'): '1d3657e8174cf2564adbfce8dbd5572e2207df76060d1dda31fda880496ca24a',
    ('rmf-compare', 'json'): '6ae0827d71bcc1d2a11df6aa1046c851c3cdc35518c349f4ffc417526c918b2f',
    ('rmf-compare', 'csv'): '96a47355b8b13c90de9fa28c5b627c22f30f11dc37cd010960bc799035f83cbf',
    ('sieve-verify', 'json'): '3c2814b202bbd188742935808cad6e7eec2da5a41aa127218c7041100b5c070a',
    ('sieve-verify', 'csv'): '7cf124d425a697ad0fbd68d1804acf68872a08b885cc873ad9ff882b07945265',
    ('sieve-verify-object', 'json'): '80187f18d9dd8893359e21d5cf1a8f8ab7e19c7a2249ba50a7eed35beb133e05',
    ('sieve-verify-object', 'csv'): '98c0656d5f6a81cfaf415cb896f5b113ab60856238d955a70fc6f6ac9a778b1f',
    ('weil-check', 'json'): '2ac4c239414264ff5416faf8ed7d4ec843ceb78552c6498a051dc700992ad555',
    ('weil-check', 'csv'): '94f3d6cf56f29f7075a7eb3a63a85badd92dd712ef1b36a90c16eb3e3c136869',
    ('weil-check-wrap', 'json'): 'f1ec1905bff153d56e54bfd26b754cfa884944b7f9b02895ced3f5c2be96e609',
    ('weil-check-wrap', 'csv'): 'b24e8b5bbd298770c6d78499811c663f887b59eca8b869333d37901ef3672adf',
}


def _output(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def digest(name: str, fmt: str) -> str:
    rc, text = _output(ARGVS[name] + ["--format", fmt])
    assert rc == 0, f"{name} --format {fmt} exited {rc}"
    if fmt == "json":
        envelope = json.loads(text)
        del envelope["meta"], envelope["versions"]
        text = json.dumps(envelope, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


CASES = [
    pytest.param(name, fmt, block_bytes, id=f"{name}-{fmt}{suffix}")
    for block_bytes, suffix in ((windows.BLOCK_BYTES, ""), (12 * 64, "-streamed"))
    for name in sorted(ARGVS)
    for fmt in ("json", "csv")
]


@pytest.mark.parametrize("name, fmt, block_bytes", CASES)
def test_golden_envelope(name, fmt, block_bytes, monkeypatch):
    monkeypatch.setattr(windows, "BLOCK_BYTES", block_bytes)
    assert digest(name, fmt) == GOLDEN[name, fmt]


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_json_layout_is_the_stdlib_indent_2_sorted(name):
    # the hashes above re-serialise the envelope; this pins the bytes printed
    rc, text = _output(ARGVS[name])
    assert rc == 0
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    for name in sorted(ARGVS):
        for fmt in ("json", "csv"):
            print(f"    ({name!r}, {fmt!r}): {digest(name, fmt)!r},")
