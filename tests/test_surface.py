"""Tests for the installed surface: package exports and console scripts."""

import importlib
from pathlib import Path

import pytest

import lcbands

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_all_names_resolve():
    for name in lcbands.__all__:
        assert hasattr(lcbands, name), name


def test_console_scripts_import():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for script, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), script
