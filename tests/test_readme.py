"""The README's Library example runs as printed, so the docs cannot rot."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # one python block: the full-period moments and CDF gap of q = 10000019,
    # whose histogram window_histograms itself checks against the identities
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(code, str(README), "exec"), {})
    moments, gap = capsys.readouterr().out.splitlines()
    m2, m4 = map(float, moments.split())
    assert abs(m2 - 1.0) < 0.01 and abs(m4 - 3.0) < 0.1 and float(gap) < 0.02
