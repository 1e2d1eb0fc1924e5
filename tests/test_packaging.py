"""Packaging metadata and the ``python -m repro`` entry point (offline)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_python_dash_m_repro_help_exits_zero():
    result = _run("-m", "repro", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: repro")


def test_setup_py_reports_real_metadata():
    pytest.importorskip("setuptools")
    result = _run("setup.py", "--name", "--version")
    assert result.returncode == 0, result.stderr
    name, version = result.stdout.split()[-2:]
    assert name != "UNKNOWN"
    assert name == "comet-repro"
    assert version == repro.__version__


def test_pyproject_declares_src_layout_script_and_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["name"] == "comet-repro"
    assert project["requires-python"] == ">=3.10"
    assert project["dependencies"] == []
    assert project["scripts"] == {"repro": "repro.cli:main"}
