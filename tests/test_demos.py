"""The demo scripts run to completion, and the package exports what they import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import friendcast

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 4


def test_every_exported_name_resolves():
    missing = [name for name in friendcast.__all__ if not hasattr(friendcast, name)]
    assert missing == []


def test_the_exports_are_exactly_what_the_demos_import():
    imported = {
        alias.name
        for demo in DEMOS
        for node in ast.walk(ast.parse(demo.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "friendcast"
        for alias in node.names
    }
    assert set(friendcast.__all__) == imported


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, request):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # The suite's warning filters, so a NaN or an overflow in a demo fails here too.
    warnings = [f"-W{entry}" for entry in request.config.getini("filterwarnings")]
    done = subprocess.run([sys.executable, *warnings, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
