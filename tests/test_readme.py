"""The README's examples, lists and names stay in step with the code."""

import importlib
import pkgutil
import re
from pathlib import Path

import liemult
from liemult.config import _LAWS
from liemult.experiments import _JOINT_BOUNDS, EXPERIMENTS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
MODULES = {info.name for info in pkgutil.iter_modules(liemult.__path__)}


def test_library_quick_start_runs(capsys):
    section = README.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library quick start", "exec"), {})
    assert "'pass': True" in capsys.readouterr().out   # the cocycle defect report


def test_listed_jump_laws_are_the_config_kinds():
    listed = re.search(r"Jump\s+laws:([^.]*)\.", README).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(_LAWS)


def test_listed_joint_checks_are_the_check_table():
    listed = re.search(r"experiments that carry a\s+joint check are([^.]*)\.", README).group(1)
    assert re.findall(r"`([\w-]+)`", listed) == list(_JOINT_BOUNDS)


def test_listed_delta_radii_are_the_catalog_bounds():
    for radius in ("rho_double_prime", "rho_prime"):
        listed = re.search(rf"below\s+`{radius}`[^(]*\(([^)]*)\)", README).group(1)
        bounded = [name for name, spec in EXPERIMENTS.items()
                   if spec.params.get("delta", ())[2:] == (radius,)]
        assert re.findall(r"`([\w-]+)`", listed) == bounded


def test_dotted_names_resolve():
    # a backticked `a.b` whose head is a liemult module or public name must exist
    checked = []
    for name in sorted(set(re.findall(r"`(\w+(?:\.\w+)+)`", README))):
        head, *attrs = name.split(".")
        if head in MODULES:
            obj = importlib.import_module(f"liemult.{head}")
        elif not head.startswith("_") and hasattr(liemult, head):
            obj = getattr(liemult, head)
        else:
            continue
        for attr in attrs:
            assert hasattr(obj, attr), f"README names `{name}`, which does not resolve"
            obj = getattr(obj, attr)
        checked.append(name)
    assert checked
