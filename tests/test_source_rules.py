"""Source rules of the package: mathematical certificates are never `assert`
statements (they vanish under `python -O`), the runtime dependencies are
the standard library and `click`, and `reports.write_json` is the one
serializer of reports."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "horocycle"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"click"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "linalg.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_click_or_relative(path):
    outside = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [name for name in names if name.split(".")[0] not in ALLOWED]
    assert outside == [], f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_json_is_written_only_by_the_report_writer(path):
    # no module but reports.py imports json, so none calls json.dump or json.dumps;
    # reports.py imports only json's C string escaper
    uses = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            uses += [alias.name for alias in node.names if alias.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "json":
            uses += [f"{node.module}.{alias.name}" for alias in node.names]
    assert uses == (["json.encoder.encode_basestring_ascii"] if path.name == "reports.py" else [])
