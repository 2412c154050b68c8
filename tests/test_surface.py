"""Tests for the installed surface: package exports, console scripts, and
the module attributes the benchmark's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import lcbands

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
LAYERTRACE = ROOT / "bench" / "layertrace.py"
README = ROOT / "README.md"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("_lcbands_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _load_layertrace()


def test_all_names_resolve():
    for name in lcbands.__all__:
        assert hasattr(lcbands, name), name


def test_readme_quickstart_runs():
    # the first python block of the README is the quickstart; it must run
    # as written against the installed surface
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    code = text[start : text.index("```", start)]
    exec(compile(code, str(README), "exec"), {"__name__": "readme_quickstart"})


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for script, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), script


@pytest.mark.parametrize(
    "path, attr, span", layertrace.TARGETS, ids=[t[2] for t in layertrace.TARGETS]
)
def test_trace_targets_resolve(path, attr, span):
    # Tracer.install skips a missing target with only a warning, which
    # silently drops that span's per-layer metrics; a rename must fail here
    owner = layertrace._resolve(lcbands, path)
    assert owner is not None, f"lcbands.{path} not found"
    assert attr in owner.__dict__, f"lcbands.{path}.{attr} not found"
