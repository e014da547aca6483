"""README's Python examples run as written, so the documentation cannot drift from the API."""

import re
from pathlib import Path

from edmpos.consistency import Verdict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    # the library example prints the verdict tag first
    assert capsys.readouterr().out.split("\n", 1)[0] in {v.value for v in Verdict}
