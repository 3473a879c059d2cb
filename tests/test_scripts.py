"""The example scripts and README's library example run end to end on
small inputs, and the names README gives resolve."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mbstat

ROOT = Path(__file__).resolve().parent.parent


def test_convention_gap_demo_exits_0():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "scripts/convention_gap_demo.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_cli_smoke_exits_0(tmp_path):
    """The CLI smoke checks, run from another directory with this
    interpreter as ``python``; the script sets its own PYTHONPATH."""
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [os.path.dirname(sys.executable),
                                                env.get("PATH")]))
    proc = subprocess.run(["bash", str(ROOT / "scripts" / "cli_smoke.sh")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "centers exact" in proc.stdout


def test_readme_library_example_gives_its_commented_values():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```")[0]
    # What each "# value" comment stands for.
    commented = {"0.375": 0.375, "0.333...": 1 / 3, "3.25": 3.25}
    namespace, checked = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        shown = comment.split()[0]
        assert eval(code, namespace) == pytest.approx(commented[shown], rel=1e-12), line
        checked.append(shown)
    assert checked == list(commented)


def test_readme_module_names_resolve():
    """Every backticked ``module.name`` in README whose module is an mbstat
    submodule names an attribute of it, so a function moved away from under
    the docs fails here."""
    modules = {info.name for info in pkgutil.iter_modules(mbstat.__path__)}
    refs = [(module, name) for module, name in
            re.findall(r"`(\w+)\.(\w+)", (ROOT / "README.md").read_text()) if module in modules]
    assert refs
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"mbstat.{module}"), name)]
    assert not missing, missing
