"""The README's examples and lists stay in step with the code."""

import re
from pathlib import Path

from liemult.config import _LAWS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_library_quick_start_runs(capsys):
    section = README.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library quick start", "exec"), {})
    assert "'pass': True" in capsys.readouterr().out   # the cocycle defect report


def test_listed_jump_laws_are_the_config_kinds():
    listed = re.search(r"Jump\s+laws:([^.]*)\.", README).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(_LAWS)
