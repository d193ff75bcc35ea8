from __future__ import annotations

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library usage", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # R, gap and bound of the Rawlsian run, then the baseline's R
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(math.isfinite(float(v)) for v in printed)
